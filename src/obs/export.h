#ifndef CHRONOCACHE_OBS_EXPORT_H_
#define CHRONOCACHE_OBS_EXPORT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chrono::obs {

/// `v` escaped for use inside a JSON string literal (quotes, backslashes
/// and control characters).
std::string EscapeJson(const std::string& v);

/// Renders a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` per metric family, histograms as
/// cumulative `_bucket{le=...}` series with an `le="+Inf"` terminal bucket
/// plus `_sum` and `_count`. Output is deterministic for a given snapshot
/// (families sorted by name, then label set).
std::string ToPrometheusText(const RegistrySnapshot& snapshot);

/// Renders a registry snapshot as a JSON object:
/// {"metrics":[{"name":...,"type":...,"labels":{...},"value":...} |
///             {..., "count":N,"sum":S,"p50":...,"buckets":[[le,c],...]}]}
std::string ToJson(const RegistrySnapshot& snapshot);

/// Renders traces (as returned by TraceRing::Snapshot, most recent first)
/// as a JSON array of request objects with timed spans, backend-event
/// annotations and prediction attribution.
std::string TracesToJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces);

/// Renders a tail-reservoir snapshot (slowest first) as JSON. Each entry
/// carries a histogram-exemplar link: the `le` bound of the
/// chrono_request_latency_ns bucket this trace's total latency lands in,
/// so a tail bucket in /metrics can be joined back to a concrete trace
/// id. `offered`/`admitted` are the reservoir's own counters.
std::string TailToJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces,
    uint64_t offered, uint64_t admitted);

/// Structural validator for the Prometheus text format, used by the golden
/// tests and by tools/promlint (which CI runs against a live scrape).
/// Checks: every sample belongs to a `# HELP`-ed and `# TYPE`-ed family of
/// a known type; sample values parse as numbers; histogram families have
/// monotonically non-decreasing cumulative buckets ending in `le="+Inf"`,
/// and carry matching `_sum`/`_count` series.
Status ValidatePrometheusText(const std::string& text);

}  // namespace chrono::obs

#endif  // CHRONOCACHE_OBS_EXPORT_H_
