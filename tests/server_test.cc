// ode_serverd end-to-end tests (docs/SERVER.md): multi-client transactions
// over the wire, protocol hardening, admission control, graceful drain and
// durability across a server restart.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "test_util.h"

namespace ode {
namespace {

using server::Client;
using server::Frame;
using server::MsgType;
using server::ScanRecord;
using server::ScanReq;
using server::Server;
using server::ServerOptions;
using testing::TestDb;

/// The account record tests push over the wire (Archive-encoded, decoded by
/// nobody but the clients themselves — the server is type-agnostic).
struct WireAccount {
  uint64_t id = 0;
  int64_t balance = 0;
  template <typename AR>
  void OdeFields(AR& ar) {
    ar(id, balance);
  }
};

ServerOptions FastServerOptions() {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.drain_timeout_ms = 1000;
  return opts;
}

/// Database options for a served database. The short lock-wait timeout
/// matters: a worker thread blocks inside the lock manager while the lock
/// holder's Commit may be starving in the request queue behind it — a cycle
/// the waits-for graph cannot see (it spans the worker pool, not just lock
/// resources). A bounded wait converts that stall into Status::Busy, which
/// the protocol already defines as retryable (docs/SERVER.md).
DatabaseOptions ServedDbOptions() {
  DatabaseOptions options = TestDb::FastOptions();
  options.engine.lock_wait_timeout_ms = 250;
  return options;
}

std::unique_ptr<Server> MustStart(Database* db, const ServerOptions& opts) {
  std::unique_ptr<Server> server;
  Status s = Server::Start(db, opts, &server);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return server;
}

uint64_t CounterNow(Database& db, const std::string& name) {
  return db.metrics().TakeSnapshot().counter(name);
}

/// A hand-driven socket for protocol-hardening tests (the Client refuses to
/// send malformed bytes).
struct RawConn {
  int fd = -1;

  ~RawConn() { Close(); }
  void Close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool Connect(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until the peer closes (or the 10s receive timeout fires).
  std::string RecvUntilClosed() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  bool RecvFrame(Frame* frame) {
    std::string in;
    char buf[4096];
    for (;;) {
      size_t consumed = 0;
      if (server::TryParseFrame(in, 64u << 20, frame, &consumed) ==
          server::ParseResult::kFrame) {
        return true;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      in.append(buf, static_cast<size_t>(n));
    }
  }

  bool SendHello() {
    std::string wire;
    server::AppendFrame(&wire, MsgType::kHello,
                        server::EncodeBody(server::HelloReq{}));
    if (!SendAll(wire)) return false;
    Frame reply;
    return RecvFrame(&reply) && reply.type == MsgType::kReply;
  }
};

TEST(ServerTest, EndToEndBasics) {
  TestDb tdb(ServedDbOptions());
  auto server = MustStart(tdb.db.get(), FastServerOptions());

  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  ASSERT_OK(client.Ping());

  const uint32_t cluster =
      ASSERT_OK_AND_UNWRAP(client.EnsureCluster("wire.Note"));
  // Idempotent.
  ASSERT_EQ(cluster, ASSERT_OK_AND_UNWRAP(client.EnsureCluster("wire.Note")));

  auto oid = ASSERT_OK_AND_UNWRAP(client.Insert(cluster, "hello, wire"));
  ASSERT_EQ(cluster, oid.cluster);

  auto rec = ASSERT_OK_AND_UNWRAP(client.Read(cluster, oid.local));
  ASSERT_EQ("hello, wire", rec.bytes);

  ASSERT_OK(client.Write(cluster, oid.local, "rewritten"));
  rec = ASSERT_OK_AND_UNWRAP(client.Read(cluster, oid.local));
  ASSERT_EQ("rewritten", rec.bytes);

  auto clusters = ASSERT_OK_AND_UNWRAP(client.ListClusters());
  ASSERT_EQ(1u, clusters.clusters.size());
  ASSERT_EQ("wire.Note", clusters.clusters[0].type_name);

  // Scan streams the record back.
  ScanReq scan;
  scan.cluster = cluster;
  std::vector<ScanRecord> rows;
  const uint64_t count = ASSERT_OK_AND_UNWRAP(
      client.Scan(scan, [&](const ScanRecord& r) { rows.push_back(r); }));
  ASSERT_EQ(1u, count);
  ASSERT_EQ(1u, rows.size());
  ASSERT_EQ("rewritten", rows[0].bytes);

  ASSERT_OK(client.Delete(cluster, oid.local));
  auto gone = client.Read(cluster, oid.local);
  ASSERT_TRUE(gone.status().IsNotFound()) << gone.status().ToString();

  // Reads of unknown objects are errors, not crashes.
  auto missing = client.Read(cluster, 424242);
  ASSERT_FALSE(missing.ok());

  // The binary statsz carries the server metrics.
  const std::string stats = ASSERT_OK_AND_UNWRAP(client.Statsz());
  ASSERT_NE(std::string::npos, stats.find("server.accepted"));
  ASSERT_NE(std::string::npos, stats.find("server.requests"));

  client.Close();
  ASSERT_OK(server->Shutdown());
}

// Wire Scan paging: `start` is an entry index and `limit` a record count.
// 300 records fill entry pages of 127 entries; with one deleted, a page
// starting mid entry page and crossing into the next returns exactly the
// model's live records in that window — one-shot (a snapshot), in a locked
// transaction and in a snapshot transaction alike.
TEST(ServerTest, ScanPagesByStartAndLimit) {
  TestDb tdb(ServedDbOptions());
  auto server = MustStart(tdb.db.get(), FastServerOptions());
  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  const uint32_t cluster =
      ASSERT_OK_AND_UNWRAP(client.EnsureCluster("wire.Page"));

  // The model: local oid -> bytes of every live record.
  std::map<uint32_t, std::string> model;
  ASSERT_OK(client.Begin());
  for (int i = 0; i < 300; i++) {
    const std::string bytes = "rec" + std::to_string(i);
    auto oid = ASSERT_OK_AND_UNWRAP(client.Insert(cluster, bytes));
    model[oid.local] = bytes;
  }
  ASSERT_OK(client.Commit());
  ASSERT_EQ(model.size(), 300u);
  ASSERT_EQ(model.rbegin()->first, 299u);  // entries 0..299, no gaps
  ASSERT_OK(client.Delete(cluster, 120));
  model.erase(120);

  // The model's answer: the first `limit` live records at or past `start`.
  auto expected = [&](uint32_t start, uint32_t limit) {
    std::vector<std::pair<uint32_t, std::string>> out;
    for (auto it = model.lower_bound(start);
         it != model.end() && (limit == 0 || out.size() < limit); ++it) {
      out.push_back(*it);
    }
    return out;
  };
  auto scan = [&](uint32_t start, uint32_t limit) {
    ScanReq req;
    req.cluster = cluster;
    req.start = start;
    req.limit = limit;
    std::vector<std::pair<uint32_t, std::string>> got;
    auto count = client.Scan(
        req, [&](const ScanRecord& r) { got.emplace_back(r.local, r.bytes); });
    EXPECT_TRUE(count.ok()) << count.status().ToString();
    if (count.ok()) {
      EXPECT_EQ(count.value(), got.size());
    }
    return got;
  };
  auto check_pages = [&](const char* mode) {
    SCOPED_TRACE(mode);
    // Mid entry page 0 (entries 0..126) across the deleted 120 into page 1.
    EXPECT_EQ(scan(100, 50), expected(100, 50));
    // Starts on the deleted entry; runs from page 1 into page 2 (254..).
    EXPECT_EQ(scan(120, 140), expected(120, 140));
    // No limit: the rest of the extent from mid page 2.
    EXPECT_EQ(scan(260, 0), expected(260, 0));
    // Past the extent: nothing.
    EXPECT_TRUE(scan(300, 10).empty());
  };
  check_pages("one-shot");
  ASSERT_OK(client.Begin());
  check_pages("locked transaction");
  ASSERT_OK(client.Commit());
  ASSERT_OK(client.BeginSnapshot());
  check_pages("snapshot transaction");
  ASSERT_OK(client.Commit());
  ASSERT_OK(server->Shutdown());
}

TEST(ServerTest, TransactionsAndSnapshotsOverTheWire) {
  TestDb tdb(ServedDbOptions());
  auto server = MustStart(tdb.db.get(), FastServerOptions());

  Client writer;
  ASSERT_OK(writer.Connect("127.0.0.1", server->port()));
  const uint32_t cluster =
      ASSERT_OK_AND_UNWRAP(writer.EnsureCluster("wire.Doc"));

  // Uncommitted writes are invisible; committed ones durable.
  ASSERT_OK(writer.Begin());
  auto oid = ASSERT_OK_AND_UNWRAP(writer.Insert(cluster, "draft"));
  ASSERT_OK(writer.Commit());

  Client reader;
  ASSERT_OK(reader.Connect("127.0.0.1", server->port()));
  ASSERT_OK(reader.BeginSnapshot());
  auto rec = ASSERT_OK_AND_UNWRAP(reader.Read(cluster, oid.local));
  ASSERT_EQ("draft", rec.bytes);
  // Snapshot mode rejects writes server-side.
  Status w = reader.Write(cluster, oid.local, "nope");
  ASSERT_TRUE(w.IsInvalidArgument()) << w.ToString();
  ASSERT_OK(reader.Abort());

  // Abort rolls an insert back.
  ASSERT_OK(writer.Begin());
  auto temp = ASSERT_OK_AND_UNWRAP(writer.Insert(cluster, "temp"));
  ASSERT_OK(writer.Abort());
  auto gone = writer.Read(cluster, temp.local);
  ASSERT_FALSE(gone.ok());

  // Double-begin is rejected; commit without a txn is rejected.
  ASSERT_OK(writer.Begin());
  Status second = writer.Begin();
  ASSERT_TRUE(second.IsInvalidArgument()) << second.ToString();
  ASSERT_OK(writer.Abort());
  Status stray = writer.Commit();
  ASSERT_TRUE(stray.IsInvalidArgument()) << stray.ToString();

  ASSERT_OK(server->Shutdown());
}

// The flagship invariant: concurrent clients transfer balances between
// accounts over the wire; the total is conserved no matter how the requests
// interleave, deadlock and retry across the worker pool.
TEST(ServerTest, MultiClientTransferInvariant) {
  constexpr int kAccounts = 8;
  constexpr int64_t kSeed = 1000;
  constexpr int kClients = 6;
  constexpr int kTransfersPerClient = 25;

  TestDb tdb(ServedDbOptions());
  ServerOptions opts = FastServerOptions();
  opts.worker_threads = 4;
  auto server = MustStart(tdb.db.get(), opts);

  Client setup;
  ASSERT_OK(setup.Connect("127.0.0.1", server->port()));
  const uint32_t cluster =
      ASSERT_OK_AND_UNWRAP(setup.EnsureCluster("wire.Account"));
  std::vector<uint32_t> locals;
  for (int i = 0; i < kAccounts; i++) {
    WireAccount acct;
    acct.id = static_cast<uint64_t>(i);
    acct.balance = kSeed;
    auto oid = ASSERT_OK_AND_UNWRAP(setup.InsertAs(cluster, acct));
    locals.push_back(oid.local);
  }
  setup.Close();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t rng = 0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(c);
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      for (int t = 0; t < kTransfersPerClient; t++) {
        const int a = static_cast<int>(next() % kAccounts);
        int b = static_cast<int>(next() % kAccounts);
        if (b == a) b = (b + 1) % kAccounts;
        // Ordered account access keeps deadlocks rare; the retry loop
        // absorbs the upgrade deadlocks 2PL still produces.
        const uint32_t lo = locals[std::min(a, b)];
        const uint32_t hi = locals[std::max(a, b)];
        bool done = false;
        for (int attempt = 0; attempt < 500 && !done; attempt++) {
          // Read-then-write each account in turn: the S lock upgrades to X
          // immediately instead of being held across network roundtrips,
          // which keeps S->X upgrade deadlocks rare (retries absorb the
          // rest).
          auto transfer = [&]() -> Status {
            ODE_RETURN_IF_ERROR(client.Begin());
            Result<WireAccount> first = client.ReadAs<WireAccount>(cluster, lo);
            if (!first.ok()) return first.status();
            WireAccount from = first.value();
            from.balance -= 1;
            ODE_RETURN_IF_ERROR(client.WriteAs(cluster, lo, from));
            Result<WireAccount> second =
                client.ReadAs<WireAccount>(cluster, hi);
            if (!second.ok()) return second.status();
            WireAccount to = second.value();
            to.balance += 1;
            ODE_RETURN_IF_ERROR(client.WriteAs(cluster, hi, to));
            return client.Commit();
          };
          Status s = transfer();
          if (s.ok()) {
            done = true;
            break;
          }
          // Roll back whatever is left open, then retry retryable failures.
          IgnoreStatus(client.Abort(), "test_transfer_reset");
          if (!(s.IsBusy() || s.IsDeadlock() || s.IsTransactionAborted())) {
            ADD_FAILURE() << "transfer failed hard: " << s.ToString();
            failures.fetch_add(1);
            return;
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(1 + (next() % 5)));
        }
        if (!done) {
          ADD_FAILURE() << "transfer never succeeded after 500 attempts";
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0, failures.load());

  // The invariant, checked over the wire from a fresh snapshot.
  Client check;
  ASSERT_OK(check.Connect("127.0.0.1", server->port()));
  ScanReq scan;
  scan.cluster = cluster;
  int64_t total = 0;
  uint64_t rows = 0;
  const uint64_t count =
      ASSERT_OK_AND_UNWRAP(check.Scan(scan, [&](const ScanRecord& rec) {
        WireAccount acct;
        ASSERT_TRUE(server::DecodeBody(Slice(rec.bytes), &acct));
        total += acct.balance;
        rows++;
      }));
  ASSERT_EQ(static_cast<uint64_t>(kAccounts), count);
  ASSERT_EQ(static_cast<uint64_t>(kAccounts), rows);
  ASSERT_EQ(kSeed * kAccounts, total);

  ASSERT_OK(server->Shutdown());
}

TEST(ServerTest, MalformedFramesAreRejected) {
  TestDb tdb(ServedDbOptions());
  auto server = MustStart(tdb.db.get(), FastServerOptions());
  const uint64_t errors_before =
      CounterNow(*tdb.db, "server.protocol_errors");

  // A garbage length prefix closes the connection.
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    ASSERT_TRUE(raw.SendAll("XXXXXXXXXXXX"));
    ASSERT_EQ("", raw.RecvUntilClosed());  // closed without a reply
  }

  // A well-framed but truncated body gets InvalidArgument, then a close.
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    ASSERT_TRUE(raw.SendHello());
    std::string wire;
    server::AppendFrame(&wire, MsgType::kRead, "ab");  // body too short
    ASSERT_TRUE(raw.SendAll(wire));
    Frame reply;
    ASSERT_TRUE(raw.RecvFrame(&reply));
    ASSERT_EQ(MsgType::kReply, reply.type);
    server::Reply decoded;
    ASSERT_TRUE(server::DecodeBody(Slice(reply.body), &decoded));
    Status s = server::StatusFromWire(decoded.code, decoded.message);
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }

  // Unknown message types are errors too.
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    ASSERT_TRUE(raw.SendHello());
    std::string wire;
    server::AppendFrame(&wire, static_cast<MsgType>(250), "");
    ASSERT_TRUE(raw.SendAll(wire));
    Frame reply;
    ASSERT_TRUE(raw.RecvFrame(&reply));
    ASSERT_EQ(MsgType::kReply, reply.type);
  }

  // Requests before Hello are rejected.
  {
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server->port()));
    std::string wire;
    server::AppendFrame(&wire, MsgType::kPing,
                        server::EncodeBody(server::PingReq{}));
    ASSERT_TRUE(raw.SendAll(wire));
    Frame reply;
    ASSERT_TRUE(raw.RecvFrame(&reply));
    server::Reply decoded;
    ASSERT_TRUE(server::DecodeBody(Slice(reply.body), &decoded));
    ASSERT_NE(0, decoded.code);
  }

  ASSERT_GE(CounterNow(*tdb.db, "server.protocol_errors"), errors_before + 3);

  // The server survived all of it: a well-behaved client still works.
  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  ASSERT_OK(client.Ping());
  ASSERT_OK(server->Shutdown());
}

TEST(ServerTest, BusyWhenQueueSaturated) {
  TestDb tdb(ServedDbOptions());
  ServerOptions opts = FastServerOptions();
  opts.worker_threads = 1;
  // Pin the pool so it cannot grow: saturation must be reachable.
  opts.max_worker_threads = 1;
  opts.queue_capacity = 1;
  opts.enable_test_sleep = true;
  auto server = MustStart(tdb.db.get(), opts);
  const uint64_t busy_before = CounterNow(*tdb.db, "server.busy_rejections");

  // Park the single worker, fill the single queue slot, then watch
  // admission control shed the third request with Busy.
  Client a, b, c;
  ASSERT_OK(a.Connect("127.0.0.1", server->port()));
  ASSERT_OK(b.Connect("127.0.0.1", server->port()));
  ASSERT_OK(c.Connect("127.0.0.1", server->port()));

  std::thread ta([&] { EXPECT_OK(a.Ping(/*delay_ms=*/600)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread tb([&] { EXPECT_OK(b.Ping(/*delay_ms=*/300)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  Status shed = c.Ping();
  ASSERT_TRUE(shed.IsBusy()) << shed.ToString();
  ASSERT_GE(CounterNow(*tdb.db, "server.busy_rejections"), busy_before + 1);

  ta.join();
  tb.join();
  // The shed client's connection is still usable once load clears.
  ASSERT_OK(c.Ping());
  ASSERT_OK(server->Shutdown());
}

TEST(ServerTest, GracefulDrainAbortsStragglers) {
  TestDb tdb(ServedDbOptions());
  ServerOptions opts = FastServerOptions();
  opts.drain_timeout_ms = 300;
  auto server = MustStart(tdb.db.get(), opts);
  const uint64_t aborted_before = CounterNow(*tdb.db, "server.drain_aborted");
  const uint64_t gc_before = CounterNow(*tdb.db, "server.gc_drain_runs");

  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  const uint32_t cluster =
      ASSERT_OK_AND_UNWRAP(client.EnsureCluster("wire.Straggler"));

  // A transaction left open across the drain deadline is a straggler.
  ASSERT_OK(client.Begin());
  ASSERT_TRUE(client.Insert(cluster, "never committed").ok());

  ASSERT_OK(server->Shutdown());

  // The server aborted the straggler (counted) and ran the drain GC pass.
  ASSERT_GE(CounterNow(*tdb.db, "server.drain_aborted"), aborted_before + 1);
  ASSERT_GE(CounterNow(*tdb.db, "server.gc_drain_runs"), gc_before + 1);

  // The client's commit can only fail now.
  Status late = client.Commit();
  ASSERT_FALSE(late.ok());

  // And the insert never became visible.
  ASSERT_OK(tdb.db->RunReadTransaction([&](Transaction& txn) -> Status {
    auto c = tdb.db->ClusterIdForName("wire.Straggler");
    if (!c.ok()) return c.status();
    std::vector<ObjectTable::Head> heads;
    ODE_RETURN_IF_ERROR(
        txn.ScanHeads(c.value(), 0, kInvalidLocalOid, &heads).status());
    EXPECT_TRUE(heads.empty()) << "straggler's insert survived the drain abort";
    return Status::OK();
  }));
}

TEST(ServerTest, ReconnectAfterRestartRecoversDurableState) {
  TestDb tdb(ServedDbOptions());
  uint32_t cluster = 0;
  uint32_t local = 0;
  {
    auto server = MustStart(tdb.db.get(), FastServerOptions());
    Client client;
    ASSERT_OK(client.Connect("127.0.0.1", server->port()));
    cluster = ASSERT_OK_AND_UNWRAP(client.EnsureCluster("wire.Durable"));
    ASSERT_OK(client.Begin());
    auto oid = ASSERT_OK_AND_UNWRAP(client.Insert(cluster, "persist me"));
    local = oid.local;
    ASSERT_OK(client.Commit());
    ASSERT_OK(server->Shutdown());
  }

  // Full restart: close the database, reopen it, serve it again.
  tdb.Reopen();
  auto server = MustStart(tdb.db.get(), FastServerOptions());
  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  auto rec = ASSERT_OK_AND_UNWRAP(client.Read(cluster, local));
  ASSERT_EQ("persist me", rec.bytes);
  ASSERT_OK(server->Shutdown());
}

TEST(ServerTest, PlainTextStatszEndpoint) {
  TestDb tdb(ServedDbOptions());
  auto server = MustStart(tdb.db.get(), FastServerOptions());

  // Generate some traffic first so the counters are non-trivial.
  Client client;
  ASSERT_OK(client.Connect("127.0.0.1", server->port()));
  ASSERT_OK(client.Ping());
  client.Close();

  RawConn raw;
  ASSERT_TRUE(raw.Connect(server->port()));
  ASSERT_TRUE(raw.SendAll("GET /statsz HTTP/1.0\r\n\r\n"));
  const std::string text = raw.RecvUntilClosed();
  EXPECT_NE(std::string::npos, text.find("server.accepted"));
  EXPECT_NE(std::string::npos, text.find("server.requests"));
  EXPECT_NE(std::string::npos, text.find("server.queue_depth"));

  ASSERT_OK(server->Shutdown());
}

}  // namespace
}  // namespace ode
