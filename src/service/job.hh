/**
 * @file
 * Job identity layer of the service tier: the types every other
 * service layer (validation, JobService, dispatcher) speaks.
 *
 * A job is one submitted EstimateRequest moving through an explicit
 * state machine:
 *
 *     submitted --> validated --> scheduled --> running --> done
 *          \             \                          \
 *           \             `--> done (cache hit)      `--> failed
 *            `--> failed (validation rejected)
 *
 * Transitions are checked (jobStateCanStep + JobStateMachine), so a
 * JobService bug that skips a stage fails loudly instead of silently
 * mislabeling a job.  Terminal states (done, failed) have no exits.
 *
 * Errors are structured: a JobError carries a stable machine
 *-readable code (which layer rejected the job and why) next to the
 * human-readable message, instead of the raw FatalError capture the
 * old monolithic JobQueue did.  The message strings are still the
 * exact FatalError texts the underlying layers produce, so output
 * bytes and goldens are unchanged.
 */

#ifndef TRAQ_SERVICE_JOB_HH
#define TRAQ_SERVICE_JOB_HH

#include <cstddef>
#include <string>

#include "src/estimator/estimator.hh"

namespace traq::service {

/** Job handle: the 0-based submission index. */
using JobId = std::size_t;

/** Lifecycle of one job; see the file comment for the diagram. */
enum class JobState
{
    Submitted, //!< accepted, not yet validated
    Validated, //!< parsed + per-kind checks passed, key computed
    Scheduled, //!< admitted to the ready queue (or joined inflight)
    Running,   //!< a worker is evaluating the entry
    Done,      //!< terminal, outcome.ok == true
    Failed,    //!< terminal, outcome.ok == false
};

/** Number of JobState values (for exhaustive tables). */
inline constexpr int kJobStateCount = 6;

/** Stable lowercase name, e.g. "scheduled". */
const char *jobStateName(JobState s);

/**
 * Transition legality table.  Allowed steps:
 *   submitted -> validated | failed
 *   validated -> scheduled | done | failed
 *   scheduled -> running
 *   running   -> done | failed
 * Everything else — including any exit from a terminal state and
 * any self-transition — is illegal.
 */
bool jobStateCanStep(JobState from, JobState to);

/** True for done / failed. */
bool jobStateTerminal(JobState s);

/**
 * Stable error-class codes carried by JobError.  Which layer
 * rejected the job, and why:
 *   json     — the input line was not parseable JSON
 *   shape    — parseable JSON, wrong shape for an EstimateRequest
 *   kind     — no estimator registered for the kind
 *   param    — the kind rejected a parameter name or value
 *   env      — the kind could not resolve the environment it reads
 *              (TRAQ_DECODER, TRAQ_WORD_BACKEND, TRAQ_PREDECODE);
 *              cached in memory, never persisted
 *   estimate — the evaluation itself threw FatalError
 *   system   — transient std::exception (bad_alloc, ...); never
 *              cached
 */
namespace errc {
inline constexpr const char *json = "json";
inline constexpr const char *shape = "shape";
inline constexpr const char *kind = "kind";
inline constexpr const char *param = "param";
inline constexpr const char *env = "env";
inline constexpr const char *estimate = "estimate";
inline constexpr const char *system = "system";
} // namespace errc

/** Structured rejection: class code + exact FatalError message. */
struct JobError
{
    std::string code;    //!< one of the errc constants
    std::string message; //!< human-readable diagnostic

    bool empty() const { return code.empty() && message.empty(); }
};

/** Terminal state of one job. */
struct JobOutcome
{
    bool ok = false;
    est::EstimateResult result; //!< valid when ok
    std::string error;          //!< diagnostic message when !ok
    std::string errorCode;      //!< errc class when !ok ("" when ok)

    /**
     * Service-shaped JSON: est::toJson(result) when ok, else
     * {"error":"..."} — the error code is service metadata, not
     * wire format, so the bytes match the pre-split JobQueue.
     */
    std::string toJson() const;
};

/**
 * Checked per-job state tracker: step() enforces the legality
 * table, so an illegal transition is a loud TRAQ_FATAL at the
 * buggy call site rather than a silently wrong stats line.
 */
class JobStateMachine
{
  public:
    JobState state() const { return state_; }

    /** Advance to @p to; TRAQ_FATAL when the step is illegal. */
    void step(JobState to);

  private:
    JobState state_ = JobState::Submitted;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_JOB_HH
