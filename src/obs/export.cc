#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

namespace chrono::obs {

namespace {

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Integral values print without a fraction so counter output is exact;
/// everything else uses shortest-round-trip-ish %g.
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RenderLabels(const Labels& labels, const char* extra_key = nullptr,
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += std::string(extra_key) + "=\"" + EscapeLabelValue(extra_value) +
           "\"";
  }
  out += '}';
  return out;
}

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string EscapeJson(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  std::string current_family;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.name != current_family) {
      current_family = m.name;
      out += "# HELP " + m.name + " " + m.help + "\n";
      out += "# TYPE " + m.name + " " + TypeName(m.type) + "\n";
    }
    if (m.type == MetricType::kHistogram) {
      for (const HistogramSnapshot::Bucket& b : m.histogram.buckets) {
        out += m.name + "_bucket" +
               RenderLabels(m.labels, "le", FormatValue(b.upper_bound)) + " " +
               FormatValue(static_cast<double>(b.cumulative)) + "\n";
      }
      out += m.name + "_sum" + RenderLabels(m.labels) + " " +
             FormatValue(m.histogram.sum) + "\n";
      out += m.name + "_count" + RenderLabels(m.labels) + " " +
             FormatValue(static_cast<double>(m.histogram.count)) + "\n";
    } else {
      out += m.name + RenderLabels(m.labels) + " " + FormatValue(m.value) +
             "\n";
    }
  }
  return out;
}

std::string ToJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + EscapeJson(m.name) + "\",\"type\":\"" +
           TypeName(m.type) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : m.labels) {
      if (!first_label) out += ',';
      first_label = false;
      out += "\"" + EscapeJson(k) + "\":\"" + EscapeJson(v) + "\"";
    }
    out += "}";
    if (m.type == MetricType::kHistogram) {
      const HistogramSnapshot& h = m.histogram;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\"count\":%" PRIu64
                    ",\"sum\":%.6g,\"mean\":%.6g,\"p50\":%.6g,\"p95\":%.6g,"
                    "\"p99\":%.6g,\"p999\":%.6g",
                    h.count, h.sum, h.Mean(), h.Percentile(0.50),
                    h.Percentile(0.95), h.Percentile(0.99),
                    h.Percentile(0.999));
      out += buf;
      out += ",\"buckets\":[";
      bool first_bucket = true;
      for (const HistogramSnapshot::Bucket& b : h.buckets) {
        if (!first_bucket) out += ',';
        first_bucket = false;
        if (std::isinf(b.upper_bound)) {
          std::snprintf(buf, sizeof(buf), "[\"+Inf\",%" PRIu64 "]",
                        b.cumulative);
        } else {
          std::snprintf(buf, sizeof(buf), "[%.0f,%" PRIu64 "]", b.upper_bound,
                        b.cumulative);
        }
        out += buf;
      }
      out += "]";
    } else {
      out += ",\"value\":" + FormatValue(m.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

/// The body of one trace object (no enclosing braces), shared between the
/// ring dump and the tail dossier so the two shapes cannot drift.
std::string TraceObjectBody(const RequestTrace& t) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "\"id\":%" PRIu64 ",\"client\":%" PRIu64
                ",\"template\":%" PRIu64 ",\"start_us\":%" PRIu64
                ",\"total_us\":%" PRIu64 ",\"outcome\":\"%s\"",
                t.id, t.client, t.tmpl, t.start_us, t.total_us,
                TraceOutcomeName(t.outcome));
  out += buf;
  out += ",\"sql\":\"" + EscapeJson(t.sql) + "\"";
  if (t.forced) out += ",\"forced\":true";
  if (t.prefetch_plan != 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"prefetch_plan\":%" PRIu64 ",\"prefetch_src\":%" PRIu64,
                  t.prefetch_plan, t.prefetch_src);
    out += buf;
  }
  out += ",\"spans\":[";
  bool first_span = true;
  for (const TraceSpan& s : t.spans) {
    if (!first_span) out += ',';
    first_span = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"stage\":\"%s\",\"start_us\":%" PRIu64
                  ",\"dur_us\":%" PRIu64 "}",
                  StageName(s.stage), s.start_us, s.dur_us);
    out += buf;
  }
  out += "]";
  if (!t.annotations.empty()) {
    out += ",\"annotations\":[";
    bool first_ann = true;
    for (const TraceAnnotation& a : t.annotations) {
      if (!first_ann) out += ',';
      first_ann = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"%s\",\"at_us\":%" PRIu64
                    ",\"value\":%" PRIu64 "}",
                    AnnotationKindName(a.kind), a.at_us, a.value);
      out += buf;
    }
    out += "]";
  }
  return out;
}

}  // namespace

std::string TracesToJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces) {
  std::string out = "{\"traces\":[";
  bool first = true;
  for (const auto& t : traces) {
    if (t == nullptr) continue;
    if (!first) out += ',';
    first = false;
    out += "{" + TraceObjectBody(*t) + "}";
  }
  out += "]}";
  return out;
}

std::string TailToJson(
    const std::vector<std::shared_ptr<const RequestTrace>>& traces,
    uint64_t offered, uint64_t admitted) {
  char buf[128];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"offered\":%" PRIu64 ",\"admitted\":%" PRIu64 ",",
                offered, admitted);
  out += buf;
  out += "\"traces\":[";
  bool first = true;
  for (const auto& t : traces) {
    if (t == nullptr) continue;
    if (!first) out += ',';
    first = false;
    out += "{" + TraceObjectBody(*t);
    // Exemplar link: the chrono_request_latency_ns bucket (le bound, in
    // ns — the unit that family records) this trace's total landed in.
    int bucket = Histogram::BucketIndex(t->total_us * 1000);
    uint64_t le = Histogram::BucketUpperBound(bucket);
    std::snprintf(buf, sizeof(buf),
                  ",\"exemplar\":{\"family\":\"chrono_request_latency_ns\","
                  "\"le\":%" PRIu64 "}}",
                  le);
    out += buf;
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Validator

namespace {

struct ParsedSample {
  std::string name;
  Labels labels;  // in file order, le included
  double value = 0;
  size_t line_no = 0;
};

Status Fail(size_t line_no, const std::string& msg) {
  return Status::InvalidArgument("prometheus text line " +
                                 std::to_string(line_no) + ": " + msg);
}

/// Parses `name{k="v",...} value` / `name value`. Returns false on
/// malformed syntax with `error` set.
bool ParseSample(const std::string& line, size_t line_no, ParsedSample* out,
                 std::string* error) {
  out->line_no = line_no;
  size_t pos = 0;
  while (pos < line.size() && (std::isalnum(line[pos]) || line[pos] == '_' ||
                               line[pos] == ':')) {
    ++pos;
  }
  if (pos == 0) {
    *error = "sample does not start with a metric name";
    return false;
  }
  out->name = line.substr(0, pos);
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      size_t eq = line.find('=', pos);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        *error = "malformed label (expected key=\"value\")";
        return false;
      }
      std::string key = line.substr(pos, eq - pos);
      std::string value;
      size_t i = eq + 2;
      bool closed = false;
      for (; i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          char next = line[++i];
          value += next == 'n' ? '\n' : next;
        } else if (line[i] == '"') {
          closed = true;
          ++i;
          break;
        } else {
          value += line[i];
        }
      }
      if (!closed) {
        *error = "unterminated label value";
        return false;
      }
      out->labels.emplace_back(std::move(key), std::move(value));
      pos = i;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      *error = "unterminated label set";
      return false;
    }
    ++pos;
  }
  while (pos < line.size() && std::isspace(line[pos])) ++pos;
  if (pos >= line.size()) {
    *error = "sample has no value";
    return false;
  }
  std::string value_text = line.substr(pos);
  // Trim a trailing timestamp if present (value [timestamp]).
  size_t space = value_text.find(' ');
  if (space != std::string::npos) value_text = value_text.substr(0, space);
  if (value_text == "+Inf") {
    out->value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (value_text == "-Inf") {
    out->value = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (value_text == "NaN") {
    out->value = std::nan("");
    return true;
  }
  char* end = nullptr;
  out->value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    *error = "value '" + value_text + "' is not a number";
    return false;
  }
  return true;
}

/// Strips `suffix` from `name` when present; empty string otherwise.
std::string StripSuffix(const std::string& name, const std::string& suffix) {
  if (name.size() <= suffix.size()) return "";
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  return name.substr(0, name.size() - suffix.size());
}

std::string SeriesKey(const Labels& labels) {
  Labels sorted;
  for (const auto& l : labels) {
    if (l.first != "le") sorted.push_back(l);
  }
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) key += k + "\x1f" + v + "\x1e";
  return key;
}

}  // namespace

Status ValidatePrometheusText(const std::string& text) {
  std::map<std::string, std::string> family_type;  // name -> type
  std::set<std::string> family_help;
  // Families whose first sample has already streamed past: HELP/TYPE
  // arriving for one of these is out of order (promlint rule — Prometheus
  // requires the comment block to precede the family's samples).
  std::set<std::string> families_with_samples;
  struct HistSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool has_sum = false;
    bool has_count = false;
    double count_value = 0;
    size_t line_no = 0;
  };
  // (family, series key) -> accumulated histogram state.
  std::map<std::pair<std::string, std::string>, HistSeries> histograms;
  size_t samples = 0;

  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"; other comments ignored.
      if (line.rfind("# HELP ", 0) == 0) {
        std::string rest = line.substr(7);
        size_t space = rest.find(' ');
        std::string name = rest.substr(0, space);
        if (name.empty()) return Fail(line_no, "HELP line without a name");
        if (families_with_samples.count(name) != 0) {
          return Fail(line_no, "HELP for family '" + name +
                                   "' after its first sample");
        }
        family_help.insert(name);
      } else if (line.rfind("# TYPE ", 0) == 0) {
        std::string rest = line.substr(7);
        size_t space = rest.find(' ');
        if (space == std::string::npos) {
          return Fail(line_no, "TYPE line without a type");
        }
        std::string name = rest.substr(0, space);
        std::string type = rest.substr(space + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return Fail(line_no, "unknown metric type '" + type + "'");
        }
        if (family_type.count(name) != 0) {
          return Fail(line_no, "duplicate TYPE for family '" + name + "'");
        }
        if (families_with_samples.count(name) != 0) {
          return Fail(line_no, "TYPE for family '" + name +
                                   "' after its first sample");
        }
        if (type == "counter" && StripSuffix(name, "_total").empty()) {
          return Fail(line_no, "counter '" + name +
                                   "' must end in '_total'");
        }
        family_type[name] = type;
      }
      continue;
    }

    ParsedSample sample;
    std::string error;
    if (!ParseSample(line, line_no, &sample, &error)) {
      return Fail(line_no, error);
    }
    ++samples;

    // Resolve the family this sample belongs to (histogram suffixes fold
    // into their base family).
    std::string family = sample.name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      std::string base = StripSuffix(sample.name, s);
      if (!base.empty() && family_type.count(base) != 0 &&
          (family_type[base] == "histogram" ||
           family_type[base] == "summary")) {
        family = base;
        suffix = s;
        break;
      }
    }
    auto type_it = family_type.find(family);
    if (type_it == family_type.end()) {
      return Fail(line_no, "sample '" + sample.name +
                               "' has no preceding # TYPE line");
    }
    if (family_help.count(family) == 0) {
      return Fail(line_no, "sample '" + sample.name +
                               "' has no preceding # HELP line");
    }
    if (type_it->second == "histogram" && suffix.empty()) {
      return Fail(line_no, "histogram family '" + family +
                               "' has a bare sample '" + sample.name + "'");
    }
    families_with_samples.insert(family);

    if (type_it->second == "histogram") {
      HistSeries& series =
          histograms[{family, SeriesKey(sample.labels)}];
      series.line_no = line_no;
      if (suffix == "_bucket") {
        double le = std::nan("");
        for (const auto& [k, v] : sample.labels) {
          if (k != "le") continue;
          if (v == "+Inf") {
            le = std::numeric_limits<double>::infinity();
          } else {
            char* end = nullptr;
            le = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0') {
              return Fail(line_no, "bucket le '" + v + "' is not a number");
            }
          }
        }
        if (std::isnan(le)) {
          return Fail(line_no, "histogram bucket without an le label");
        }
        series.buckets.emplace_back(le, sample.value);
      } else if (suffix == "_sum") {
        series.has_sum = true;
      } else {
        series.has_count = true;
        series.count_value = sample.value;
      }
    }
  }

  if (samples == 0) {
    return Status::InvalidArgument("prometheus text: no samples");
  }

  for (const auto& [key, series] : histograms) {
    const std::string& family = key.first;
    if (series.buckets.empty()) {
      return Fail(series.line_no,
                  "histogram '" + family + "' has no _bucket samples");
    }
    double prev_le = -std::numeric_limits<double>::infinity();
    double prev_cumulative = -1;
    for (const auto& [le, cumulative] : series.buckets) {
      if (le <= prev_le) {
        return Fail(series.line_no, "histogram '" + family +
                                        "' bucket bounds not increasing");
      }
      if (cumulative < prev_cumulative) {
        return Fail(series.line_no,
                    "histogram '" + family +
                        "' cumulative bucket counts decrease");
      }
      prev_le = le;
      prev_cumulative = cumulative;
    }
    if (!std::isinf(series.buckets.back().first)) {
      return Fail(series.line_no, "histogram '" + family +
                                      "' missing terminal le=\"+Inf\" bucket");
    }
    if (!series.has_sum || !series.has_count) {
      return Fail(series.line_no,
                  "histogram '" + family + "' missing _sum or _count");
    }
    if (series.count_value != series.buckets.back().second) {
      return Fail(series.line_no, "histogram '" + family +
                                      "' _count disagrees with +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace chrono::obs
