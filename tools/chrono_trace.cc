// chrono_trace — renders a binary event journal (serve_bench
// --journal-out) as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, merging per-request stage timelines with the backend
// events (retries, timeouts, breaker transitions, stale serves, shed
// work) journaled around them:
//
//   chrono_trace serve.journal > timeline.json
//   chrono_trace serve.journal --out timeline.json
//   chrono_trace --validate scrape.json     # strict JSON check, exit 0/2
//
// This is the node's one Perfetto view. The journal is always on, so the
// timeline covers every request (not only the ones the trace ring kept),
// and simulator journals render the same way.
//
// Stage segments are reconstructed from the packed kRequest durations and
// tiled sequentially in pipeline order — the journal stores per-stage
// sums, not span offsets, so overlap inside one request is flattened (the
// live /traces and /tail endpoints keep each retained request's exact
// span offsets as JSON). Rows are grouped per client (one Chrome "thread"
// per client id). --validate runs the same strict RFC 8259
// well-formedness check CI applies to /traces and /tail scrapes.
//
// Exit 0 on success, 2 on a malformed or unreadable input.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/journal.h"
#include "obs/trace.h"

using namespace chrono;

namespace {

void Usage() {
  std::printf(
      "chrono_trace — journal → Chrome trace-event JSON\n\n"
      "  chrono_trace FILE [--out FILE]\n"
      "  chrono_trace --validate FILE\n\n"
      "  FILE        binary journal written by serve_bench --journal-out\n"
      "  --out FILE  write the timeline JSON to FILE instead of stdout\n"
      "  --validate  check FILE is well-formed JSON (RFC 8259); exit 0/2\n");
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

/// One complete ("X") event. All names here are fixed internal strings;
/// no JSON escaping is required.
void AppendComplete(std::string* out, bool* first, const char* name,
                    const char* cat, uint64_t ts_us, uint64_t dur_us,
                    uint32_t tid) {
  if (!*first) out->push_back(',');
  *first = false;
  out->append("{\"name\":\"").append(name);
  out->append("\",\"cat\":\"").append(cat);
  out->append("\",\"ph\":\"X\",\"ts\":");
  AppendU64(out, ts_us);
  out->append(",\"dur\":");
  AppendU64(out, dur_us);
  out->append(",\"pid\":1,\"tid\":");
  AppendU64(out, tid);
  out->push_back('}');
}

/// One instant ("i") event with a single numeric arg.
void AppendInstant(std::string* out, bool* first, const char* name,
                   uint64_t ts_us, uint32_t tid, const char* arg_key,
                   uint64_t arg_value) {
  if (!*first) out->push_back(',');
  *first = false;
  out->append("{\"name\":\"").append(name);
  out->append("\",\"cat\":\"backend\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
  AppendU64(out, ts_us);
  out->append(",\"pid\":1,\"tid\":");
  AppendU64(out, tid);
  out->append(",\"args\":{\"").append(arg_key).append("\":");
  AppendU64(out, arg_value);
  out->append("}}");
}

std::string JournalToChromeJson(const std::vector<obs::JournalEvent>& events) {
  std::string out;
  out.reserve(events.size() * 160 + 128);
  out.append("{\"traceEvents\":[");
  bool first = true;

  // One process, one row ("thread") per client id.
  std::set<uint32_t> clients;
  for (const obs::JournalEvent& e : events) clients.insert(e.client);
  if (!first || !clients.empty()) {
    out.append(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
        "{\"name\":\"chronocache\"}}");
    first = false;
  }
  for (uint32_t client : clients) {
    out.append(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    AppendU64(&out, client);
    out.append(",\"args\":{\"name\":\"client ");
    AppendU64(&out, client);
    out.append("\"}}");
  }

  for (const obs::JournalEvent& e : events) {
    switch (e.type) {
      case obs::JournalEventType::kRequest: {
        if (e.flags & obs::kJournalFlagNoLatency) break;
        const uint64_t total_us = obs::UnpackHi(e.c);
        const uint64_t start_us = e.ts_us > total_us ? e.ts_us - total_us : 0;
        const int outcome = e.flags & 0x3f;
        const char* name =
            outcome < obs::kTraceOutcomeCount
                ? obs::TraceOutcomeName(static_cast<obs::TraceOutcome>(outcome))
                : "request";
        AppendComplete(&out, &first, name, "request", start_us, total_us,
                       e.client);
        // The journal stores per-stage sums, not offsets: tile the stages
        // sequentially in pipeline order (flattens intra-request overlap).
        const uint64_t stage_us[] = {
            obs::UnpackLo(e.a), obs::UnpackHi(e.a), obs::UnpackLo(e.b),
            obs::UnpackHi(e.b), obs::UnpackLo(e.c)};
        uint64_t at = start_us;
        for (int s = 0; s < 5; ++s) {
          if (stage_us[s] == 0) continue;
          AppendComplete(&out, &first,
                         obs::StageName(static_cast<obs::Stage>(s)), "stage",
                         at, stage_us[s], e.client);
          at += stage_us[s];
        }
        break;
      }
      case obs::JournalEventType::kBackendRetry:
        AppendInstant(&out, &first, "retry", e.ts_us, e.client, "attempts",
                      e.a);
        break;
      case obs::JournalEventType::kBackendTimeout:
        AppendInstant(&out, &first, "attempt_timeout", e.ts_us, e.client,
                      "budget_us", e.a);
        break;
      case obs::JournalEventType::kBreakerTransition:
        AppendInstant(&out, &first, "breaker_state", e.ts_us, e.client,
                      "state", e.a);
        break;
      case obs::JournalEventType::kStaleServe:
        AppendInstant(&out, &first, "stale_serve", e.ts_us, e.client,
                      "age_us", e.a);
        break;
      case obs::JournalEventType::kBackendCoalesced:
        AppendInstant(&out, &first, "coalesced", e.ts_us, e.client,
                      "parked_before", e.a);
        break;
      case obs::JournalEventType::kShed:
        AppendInstant(&out, &first, "shed", e.ts_us, e.client, "kind", e.a);
        break;
      default:
        break;  // prefetch-lifecycle events are chrono_audit's domain
    }
  }
  out.append("],\"displayTimeUnit\":\"ms\"}");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string out_path;
  bool validate = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out needs a file argument\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    Usage();
    return 2;
  }

  if (validate) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "chrono_trace: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string doc = text.str();
    Status status = ValidateJson(doc);
    if (!status.ok()) {
      std::fprintf(stderr, "chrono_trace: %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 2;
    }
    std::printf("%s: valid JSON (%zu bytes)\n", path.c_str(), doc.size());
    return 0;
  }

  Result<std::vector<obs::JournalEvent>> events = obs::ReadJournalFile(path);
  if (!events.ok()) {
    std::fprintf(stderr, "chrono_trace: %s\n",
                 events.status().ToString().c_str());
    return 2;
  }
  std::string doc = JournalToChromeJson(*events);
  if (out_path.empty()) {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "chrono_trace: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  out.close();
  std::printf("wrote %s (%zu bytes, %zu events)\n", out_path.c_str(),
              doc.size(), events->size());
  return 0;
}
