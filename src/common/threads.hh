/**
 * @file
 * Shared worker-thread-count policy for the parallel subsystems.
 *
 * Every parallel engine in traq (MonteCarloEngine, SweepRunner, the
 * service JobService) resolves its worker count the same way: an
 * explicit option wins, then the TRAQ_THREADS environment variable,
 * then the hardware concurrency.  Centralizing the rule keeps batch
 * jobs and CI able to pin parallelism for the whole process with one
 * knob.
 */

#ifndef TRAQ_COMMON_THREADS_HH
#define TRAQ_COMMON_THREADS_HH

namespace traq {

/**
 * Resolve a worker-thread count.
 *
 * @param requested explicit request; > 0 wins unconditionally.
 * @return requested if positive; else TRAQ_THREADS if set and
 *         non-empty; else std::thread::hardware_concurrency (at
 *         least 1).  A TRAQ_THREADS value that is not a positive
 *         integer fitting in unsigned throws FatalError.
 */
unsigned resolveThreadCount(unsigned requested);

} // namespace traq

#endif // TRAQ_COMMON_THREADS_HH
