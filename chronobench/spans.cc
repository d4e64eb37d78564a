// Chrome trace-event output of the traced run.

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "bench.h"
#include "common/json.h"

namespace chronobench {

namespace {

const char* KindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kStmt:
      return "stmt";
    case SpanKind::kNext:
      return "workloads.next";
    case SpanKind::kCall:
      return "call";
  }
  return "span";
}

void AppendMicros(std::string* out, int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out->append(buf);
}

}  // namespace

bool WriteChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<SpanLog>& logs,
                      const std::vector<std::string>& program_names,
                      int64_t origin_ns, size_t max_txns, std::string* error) {
  // The call span is the node's layer: in-process Submit or the wire hop.
  const std::string call_name =
      workload == "wiki-wire" ? "wire.query" : "runtime.submit";
  std::string out = "{\"traceEvents\":[";
  out.append(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      "\"chronobench ");
  out.append(workload).append("\"}}");
  for (size_t c = 0; c < logs.size(); ++c) {
    out.append(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.append(std::to_string(c + 1));
    out.append(",\"args\":{\"name\":\"client ");
    out.append(std::to_string(c + 1)).append("\"}}");
  }
  for (size_t c = 0; c < logs.size(); ++c) {
    // Spans are appended when they end, so a transaction's children come
    // before it; the first `max_txns` transactions end with the span that
    // closes number max_txns.
    size_t txns = 0;
    for (const Span& span : logs[c].spans) {
      if (txns >= max_txns) break;
      if (span.kind == SpanKind::kTxn) ++txns;
      const char* name = KindName(span.kind);
      std::string label = span.kind == SpanKind::kCall ? call_name : name;
      if (span.kind == SpanKind::kTxn && span.program < program_names.size()) {
        label = "txn " + program_names[span.program];
      }
      out.append(",{\"name\":\"").append(label);
      out.append("\",\"cat\":\"").append(name);
      out.append("\",\"ph\":\"X\",\"ts\":");
      AppendMicros(&out, span.start_ns - origin_ns);
      out.append(",\"dur\":");
      AppendMicros(&out, span.end_ns - span.start_ns);
      out.append(",\"pid\":1,\"tid\":").append(std::to_string(c + 1));
      out.append(",\"args\":{\"txn\":").append(std::to_string(span.txn));
      out.append(",\"stmt\":").append(std::to_string(span.stmt));
      out.append("}}");
    }
  }
  out.append("],\"displayTimeUnit\":\"ms\"}\n");

  chrono::Status valid = chrono::ValidateJson(out);
  if (!valid.ok()) {
    *error = "trace JSON invalid: " + valid.ToString();
    return false;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  file.close();
  if (!file) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace chronobench
