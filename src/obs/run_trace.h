#ifndef VCMP_OBS_RUN_TRACE_H_
#define VCMP_OBS_RUN_TRACE_H_

#include <string>

#include "metrics/run_report.h"
#include "obs/tracer.h"

namespace vcmp {

/// Draws one multi-processing run into `tracer` from its report alone:
///
///  - "<label>/batches": one "batch" span per executed batch, laid end to
///    end on the report's running sum of batch seconds, then the
///    `carryover_residual_bytes` gauge at every boundary the run went on
///    past (none after the batch an overload stopped).
///  - "<label>/engine": per round, a "round" span with the children
///    compute, barrier, checkpoint and recovery (the last two only when
///    they took time) and, on the real out-of-core path, an `ooc_spill`
///    marker; then the memory_bytes and residual_bytes gauges (plus
///    ooc_spilled_bytes out of core). Round boundaries are the engine's
///    own running sum of round seconds, offset by the batch's start.
///  - flat counters runner.* and engine.*, each added once per report
///    (its batches summed in order first), so that several reports traced
///    into one tracer sum report by report, in the caller's order.
///
/// Everything drawn is a function of the report, which is identical at
/// every thread and concurrency level, so the trace is too.
void TraceRunReport(Tracer& tracer, const std::string& label,
                    const RunReport& report);

}  // namespace vcmp

#endif  // VCMP_OBS_RUN_TRACE_H_
