// Session semantics demo (Sec. 5.2 / 5.2.1): multiple clients sharing one
// edge cache under version-vector session guarantees and row-level-security
// groups.
//
//   ./build/examples/edge_sessions

#include <cstdio>

#include "core/middleware.h"
#include "db/database.h"

using namespace chrono;

namespace {

struct Reply {
  sql::ResultSet result;
  bool from_cache = false;
};

Reply Run(EventQueue* events, core::Middleware* node, core::ClientId client,
          int group, const std::string& text) {
  Reply reply;
  uint64_t hits_before = node->metrics().cache_hits;
  node->SubmitQuery(client, group, text,
                    [&](SimTime, const Result<sql::ResultSet>& result) {
                      if (result.ok()) reply.result = *result;
                    });
  events->RunAll();
  reply.from_cache = node->metrics().cache_hits > hits_before;
  return reply;
}

const char* Origin(const Reply& reply) {
  return reply.from_cache ? "edge cache" : "remote db ";
}

}  // namespace

int main() {
  EventQueue events;
  db::Database database;
  (void)database.catalog()->CreateTable(
      "accounts", {db::ColumnDef{"id", sql::Value::Type::kInt},
                   db::ColumnDef{"balance", sql::Value::Type::kInt}});
  (void)database.ExecuteText("INSERT INTO accounts VALUES (1, 100), (2, 900)");

  net::LatencyModel latency;
  core::RemoteDbServer remote(&events, &database, latency, 8);
  core::MiddlewareConfig config;
  config.mode = core::SystemMode::kChrono;
  core::Middleware node(&events, &remote, latency, config);

  const std::string kRead = "SELECT balance FROM accounts WHERE id = 1";

  std::printf("== Session semantics (Sec. 5.2) ==\n");
  Reply r = Run(&events, &node, /*client=*/0, 0, kRead);
  std::printf("client 0 reads balance: %s  [%s]\n",
              r.result.row(0)[0].ToDisplayString().c_str(), Origin(r));

  r = Run(&events, &node, /*client=*/1, 0, kRead);
  std::printf("client 1 reads balance: %s  [%s]  (shared cached result)\n",
              r.result.row(0)[0].ToDisplayString().c_str(), Origin(r));

  (void)Run(&events, &node, /*client=*/1, 0,
            "UPDATE accounts SET balance = 150 WHERE id = 1");
  std::printf("client 1 updates the balance to 150\n");

  r = Run(&events, &node, /*client=*/1, 0, kRead);
  std::printf(
      "client 1 re-reads:      %s  [%s]  (its session advanced past the "
      "stale entry)\n",
      r.result.row(0)[0].ToDisplayString().c_str(), Origin(r));

  r = Run(&events, &node, /*client=*/2, 0, kRead);
  std::printf(
      "client 2 reads:         %s  [%s]  (fresh result re-cached by client "
      "1's read)\n",
      r.result.row(0)[0].ToDisplayString().c_str(), Origin(r));

  std::printf(
      "\nA client never observes database state older than what it has "
      "already seen;\nother clients may still read older consistent "
      "snapshots (Sec. 5.2).\n");

  std::printf("\n== Access-control groups (Sec. 5.2.1) ==\n");
  const std::string kRead2 = "SELECT balance FROM accounts WHERE id = 2";
  r = Run(&events, &node, /*client=*/3, /*group=*/7, kRead2);
  std::printf("client 3 (group 7) reads account 2: [%s]\n", Origin(r));
  r = Run(&events, &node, /*client=*/4, /*group=*/8, kRead2);
  std::printf(
      "client 4 (group 8) same query:      [%s]  (cached entry belongs to "
      "group 7 -> not shared)\n",
      Origin(r));
  r = Run(&events, &node, /*client=*/5, /*group=*/8, kRead2);
  std::printf("client 5 (group 8) same query:      [%s]\n", Origin(r));

  std::printf("\nfinal metrics: reads=%llu hits=%llu rejects=%llu\n",
              static_cast<unsigned long long>(node.metrics().reads),
              static_cast<unsigned long long>(node.metrics().cache_hits),
              static_cast<unsigned long long>(node.metrics().cache_rejects));
  return 0;
}
