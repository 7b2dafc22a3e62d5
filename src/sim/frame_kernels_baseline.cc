/** Baseline (portable x86-64) copy of the frame-sampler kernels.
 *  No extra arch flags: this TU compiles at whatever level the core
 *  library uses (plain x86-64 unless CMAKE_CXX_FLAGS raises it). */

#define TRAQ_KERNEL_NS baseline_level
#include "src/sim/frame_kernels_impl.hh"

namespace traq::sim::kernels {

const FrameKernels &
baselineKernels()
{
    return baseline_level::table();
}

} // namespace traq::sim::kernels
