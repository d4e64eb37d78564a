// Output checks (ground truth against the database) and layer probes.

#include <algorithm>
#include <chrono>

#include "bench.h"
#include "runtime/sharded_cache.h"
#include "sql/template.h"
#include "wire/wire_client.h"

namespace chronobench {

namespace {

// A client id no load session uses: its first request creates a session.
constexpr chrono::runtime::ClientId kVerifierClient = 1000;

/// A read that no program issues (negative keys never exist), so it misses
/// the cache and its backend read syncs the session vector to the
/// database's versions (§5.2): afterwards the node may only answer this
/// session from entries that are current.
std::string PrimingRead(const WorkloadSpec& spec) {
  switch (spec.programs) {
    case WorkloadSpec::Programs::kTpce:
      return "SELECT b_name FROM broker WHERE b_id = -7";
    case WorkloadSpec::Programs::kSeats:
      return "SELECT al_name FROM airline WHERE al_id = -7";
    case WorkloadSpec::Programs::kWikipedia:
      return "SELECT user_name FROM useracct WHERE user_id = -7";
  }
  return "";
}

/// Columns plus the rows as a sorted multiset: combined queries split
/// their result per statement, and row order is only defined by ORDER BY,
/// which every compared statement applies identically on both sides.
std::vector<std::string> Canonical(const chrono::sql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.row_count());
  for (const chrono::sql::Row& row : rs.rows()) {
    std::string line;
    for (const chrono::sql::Value& v : row) {
      line += chrono::workloads::Lit(v);
      line += '\x1f';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  std::string header;
  for (const std::string& c : rs.columns()) header += c + '\x1f';
  rows.insert(rows.begin(), header);
  return rows;
}

// Probe results land here so the optimiser cannot drop the probed calls.
volatile size_t g_sink = 0;

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

void AskNode(const WorkloadSpec& spec, Node* node, GroundTruth* truth) {
  std::vector<std::string> questions = {PrimingRead(spec)};
  questions.insert(questions.end(), truth->sample.begin(),
                   truth->sample.end());
  std::vector<chrono::Result<chrono::sql::ResultSet>> answers;
  if (spec.wire) {
    chrono::wire::WireClient client;
    chrono::Status status = client.Connect("127.0.0.1", node->wire->port(),
                                           kVerifierClient);
    for (const std::string& sql : questions) {
      if (!status.ok()) {
        answers.emplace_back(status);
      } else {
        answers.push_back(client.Query(sql));
      }
    }
    client.Close();
  } else {
    for (const std::string& sql : questions) {
      chrono::Result<SharedResult> r =
          node->server->Submit(kVerifierClient, sql).get();
      if (r.ok()) {
        answers.emplace_back(**r);
      } else {
        answers.emplace_back(r.status());
      }
    }
  }
  // The priming answer is not compared: it only synced the session, and
  // a failed priming read leaves it unsynced.
  if (!answers[0].ok()) {
    ++truth->mismatches;
    truth->first_mismatch = questions[0] + ": " + answers[0].status().ToString();
  }
  truth->node_answers.assign(std::make_move_iterator(answers.begin() + 1),
                             std::make_move_iterator(answers.end()));
}

void CompareWithDatabase(Node* node, GroundTruth* truth) {
  for (size_t i = 0; i < truth->sample.size(); ++i) {
    const std::string& sql = truth->sample[i];
    chrono::Result<chrono::db::ExecOutcome> direct = node->db->ExecuteText(sql);
    const chrono::Result<chrono::sql::ResultSet>& served =
        truth->node_answers[i];
    ++truth->compared;
    std::string why;
    if (!direct.ok()) {
      why = "database: " + direct.status().ToString();
    } else if (!served.ok()) {
      why = "node: " + served.status().ToString();
    } else if (Canonical(direct->result) != Canonical(*served)) {
      why = "answers differ (node " + std::to_string(served->row_count()) +
            " rows, database " + std::to_string(direct->result.row_count()) +
            " rows)";
    }
    if (!why.empty()) {
      ++truth->mismatches;
      if (truth->first_mismatch.empty()) truth->first_mismatch = sql + ": " + why;
    }
  }
}

ProbeResult RunProbes(chrono::db::Database* db,
                      const std::vector<std::string>& stream,
                      size_t cache_bytes) {
  ProbeResult out;
  out.statements = stream.size();
  if (stream.empty()) return out;

  auto start = std::chrono::steady_clock::now();
  for (const std::string& sql : stream) {
    chrono::Result<chrono::sql::ParsedQuery> parsed =
        chrono::sql::AnalyzeQuery(sql);
    g_sink = g_sink + (parsed.ok() ? parsed->params.size() : 1);
  }
  out.analyze_ns = NsSince(start) / static_cast<double>(stream.size());

  std::vector<std::shared_ptr<const chrono::sql::Statement>> statements;
  statements.reserve(stream.size());
  start = std::chrono::steady_clock::now();
  for (const std::string& sql : stream) {
    auto parsed = db->ParseCached(sql);
    statements.push_back(parsed.ok() ? *parsed : nullptr);
  }
  out.parse_cached_ns = NsSince(start) / static_cast<double>(stream.size());

  // Reads only: replaying the writes would change the database.
  std::vector<std::pair<const std::string*, chrono::sql::ResultSet>> results;
  double execute_ns = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (statements[i] == nullptr || !statements[i]->IsReadOnly()) continue;
    start = std::chrono::steady_clock::now();
    chrono::Result<chrono::db::ExecOutcome> outcome =
        db->Execute(*statements[i]);
    execute_ns += NsSince(start);
    if (outcome.ok()) {
      results.emplace_back(&stream[i], std::move(outcome->result));
    }
  }
  out.reads = results.size();
  if (results.empty()) return out;
  out.db_execute_ns = execute_ns / static_cast<double>(results.size());

  // The node's cache shape: the same budget over its default 16 shards,
  // looked up first and filled on a miss, as the demand path does.
  chrono::runtime::ShardedCache cache(cache_bytes, 16);
  double get_ns = 0, put_ns = 0;
  size_t puts = 0;
  for (auto& [sql, rows] : results) {
    start = std::chrono::steady_clock::now();
    std::optional<chrono::cache::CachedResult> hit = cache.Get(*sql);
    get_ns += NsSince(start);
    if (hit) {
      g_sink = g_sink + hit->result_bytes;
      continue;
    }
    chrono::cache::CachedResult entry;
    entry.SetResult(std::move(rows));
    start = std::chrono::steady_clock::now();
    cache.Put(*sql, std::move(entry));
    put_ns += NsSince(start);
    ++puts;
  }
  out.cache_get_ns = get_ns / static_cast<double>(results.size());
  out.cache_put_ns = puts == 0 ? 0 : put_ns / static_cast<double>(puts);
  return out;
}

}  // namespace chronobench
