// ode_shell: a small interactive/scripted inspection shell for ODE
// databases. Works without any registered application classes — it operates
// on the catalog and raw records, so any database can be examined.
//
// Usage: ode_shell <path/to/db> [-c "cmd; cmd; ..."]
//        ode_shell --connect <host:port> [-c "cmd; cmd; ..."]
//        ode_shell <path/to/db> --faults [rounds]
//
// The --connect form speaks the ode_serverd wire protocol (docs/SERVER.md)
// instead of opening a database file; `help` lists the remote command set.
//
// Exit status: 0 on success, 1 on hard errors, 3 when the server shed the
// request with Status::Busy (admission control) — retryable, so scripts can
// back off and rerun instead of treating it as a failure.
//
// The second form is a crash-fault soak: each round opens the database's
// storage engine with a fault injected at a random syscall site, runs a
// stamping transaction until the "device" dies, then reopens cleanly,
// recovers, and checks that the round's writes applied atomically. The path
// should be a scratch database — it is created and grown by the soak.
//
// Commands:
//   help                      list commands
//   clusters                  list clusters with object counts
//   types                     list registered type codes
//   indexes                   list indexes with entry counts
//   triggers                  list persistent trigger activations
//   scan <cluster> [limit]    list head objects of a cluster
//   object <cluster> <oid>    show one object: versions + record preview
//   stats                     storage engine + buffer pool statistics
//   .stats                    metrics registry dump (storage/txn/query)
//   checkpoint                flush pages and truncate the WAL
//   quit / exit               leave the shell

#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ode.h"
#include "core/verify.h"
#include "server/client.h"
#include "util/coding.h"
#include "util/random.h"

namespace {

using ode::CatalogData;
using ode::ClusterId;
using ode::Database;
using ode::LocalOid;
using ode::ObjectTable;
using ode::Oid;
using ode::PageId;
using ode::Status;
using ode::Transaction;

void PrintHelp() {
  printf(
      "commands:\n"
      "  clusters                  list clusters with object counts\n"
      "  types                     list registered type codes\n"
      "  indexes                   list indexes with entry counts\n"
      "  triggers                  list persistent trigger activations\n"
      "  scan <cluster> [limit]    list head objects of a cluster\n"
      "  object <cluster> <oid>    show one object (versions + preview)\n"
      "  stats                     storage statistics\n"
      "  .stats                    full metrics registry dump "
      "(storage/txn/query)\n"
      "  verify                    run the structural integrity checker\n"
      "  checkpoint                flush pages, truncate the WAL\n"
      "  vacuum                    reclaim trailing free pages\n"
      "  quit                      exit\n");
}

/// Printable preview of a record's bytes.
std::string Preview(const std::string& bytes, size_t max_len = 48) {
  std::string out;
  for (size_t i = 0; i < bytes.size() && out.size() < max_len; i++) {
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    if (isprint(c)) {
      out.push_back(static_cast<char>(c));
    } else {
      char hex[8];
      snprintf(hex, sizeof(hex), "\\x%02x", c);
      out += hex;
    }
  }
  if (out.size() >= max_len) out += "...";
  return out;
}

Status CmdClusters(Database& db) {
  printf("%-6s %-32s %-12s %s\n", "id", "type", "table-root", "objects");
  for (const auto& c : db.catalog().clusters) {
    size_t objects = 0;
    ODE_RETURN_IF_ERROR(db.store().ForEachHead(
        c.table_root, 0, /*include_tombstones=*/false,
        [&](const ObjectTable::Head&, bool*) {
          objects++;
          return Status::OK();
        }));
    printf("%-6u %-32s %-12u %zu\n", c.id, c.type_name.c_str(), c.table_root,
           objects);
  }
  return Status::OK();
}

Status CmdTypes(Database& db) {
  printf("%-6s %s\n", "code", "name");
  for (const auto& t : db.catalog().types) {
    printf("%-6u %s\n", t.code, t.name.c_str());
  }
  return Status::OK();
}

Status CmdIndexes(Database& db) {
  printf("%-24s %-8s %-12s %s\n", "name", "cluster", "root-ptr", "entries");
  for (const auto& i : db.catalog().indexes) {
    auto count = db.indexes().CountEntries(i.name);
    printf("%-24s %-8u %-12u %s\n", i.name.c_str(), i.cluster, i.root_page,
           count.ok() ? std::to_string(count.value()).c_str() : "?");
  }
  return Status::OK();
}

Status CmdTriggers(Database& db) {
  printf("%-8s %-20s %-12s %-10s %s\n", "id", "trigger", "object", "kind",
         "params");
  for (const auto& t : db.catalog().triggers) {
    std::string params;
    for (double p : t.params) {
      if (!params.empty()) params += ",";
      params += std::to_string(p);
    }
    printf("%-8llu %-20s (%u:%u)%*s %-10s %s\n",
           static_cast<unsigned long long>(t.trigger_id),
           t.trigger_name.c_str(), t.cluster, t.local, 4, "",
           t.perpetual ? "perpetual" : "once-only", params.c_str());
  }
  return Status::OK();
}

Status CmdScan(Database& db, ClusterId cluster, int limit) {
  ODE_ASSIGN_OR_RETURN(PageId root, db.TableRootOf(cluster));
  printf("%-8s %-6s %-6s %s\n", "oid", "vnum", "bytes", "preview");
  int shown = 0;
  if (limit > 0) {
    ODE_RETURN_IF_ERROR(db.store().ForEachHead(
        root, 0, /*include_tombstones=*/false,
        [&](const ObjectTable::Head& head, bool* stop) {
          std::string bytes;
          uint32_t type_code = 0, vnum = 0;
          ODE_RETURN_IF_ERROR(db.store().Read(root, head.local,
                                              ode::kGenericVersion, &bytes,
                                              &type_code, &vnum));
          printf("%-8u %-6u %-6zu %s\n", head.local, vnum, bytes.size(),
                 Preview(bytes).c_str());
          *stop = ++shown >= limit;
          return Status::OK();
        }));
  }
  printf("(%d object%s shown)\n", shown, shown == 1 ? "" : "s");
  return Status::OK();
}

Status CmdObject(Database& db, ClusterId cluster, LocalOid local) {
  ODE_ASSIGN_OR_RETURN(PageId root, db.TableRootOf(cluster));
  ObjectTable::Entry entry;
  ODE_RETURN_IF_ERROR(db.store().GetInfo(root, local, &entry));
  ODE_ASSIGN_OR_RETURN(std::string type_name,
                       db.TypeNameByCode(entry.type_code));
  printf("object (%u:%u)\n", cluster, local);
  printf("  type       : %s (code %u)\n", type_name.c_str(), entry.type_code);
  printf("  location   : page %u slot %u%s\n", entry.page, entry.slot,
         entry.overflow() ? " (overflow chain)" : "");
  std::vector<uint32_t> versions;
  ODE_RETURN_IF_ERROR(db.store().ListVersions(root, local, &versions));
  std::vector<std::pair<uint32_t, uint32_t>> tree;
  ODE_RETURN_IF_ERROR(db.store().ListVersionTree(root, local, &tree));
  printf("  versions   : %zu\n", versions.size());
  for (size_t i = 0; i < versions.size(); i++) {
    const uint32_t v = versions[i];
    std::string bytes;
    uint32_t type_code = 0, resolved = 0;
    ODE_RETURN_IF_ERROR(
        db.store().Read(root, local, v, &bytes, &type_code, &resolved));
    std::string parent = "root";
    for (const auto& [vn, pv] : tree) {
      if (vn == v && pv != ode::ObjectTable::kNoParentVersion) {
        parent = "from v" + std::to_string(pv);
      }
    }
    printf("    v%-4u %5zu bytes  (%s)  %s\n", v, bytes.size(),
           parent.c_str(), Preview(bytes).c_str());
  }
  size_t activations = 0;
  for (const auto& t : db.catalog().triggers) {
    if (t.cluster == cluster && t.local == local) activations++;
  }
  printf("  triggers   : %zu activation(s)\n", activations);
  return Status::OK();
}

Status CmdStats(Database& db) {
  const auto& pool = db.engine().buffer_pool();
  const auto snap = db.engine().metrics().TakeSnapshot();
  auto count = [&snap](const char* name) {
    return static_cast<unsigned long long>(snap.counter(name));
  };
  auto page_count =
      db.engine().ReadSuperU32(ode::SuperblockLayout::kPageCountOffset);
  printf("file pages        : %u (%u KiB)\n",
         page_count.ok() ? page_count.value() : 0,
         page_count.ok() ? page_count.value() * 4 : 0);
  printf("wal bytes         : %llu\n",
         static_cast<unsigned long long>(db.engine().wal().size_bytes()));
  printf("txns committed    : %llu\n", count("storage.engine.txn_commits"));
  printf("txns aborted      : %llu\n", count("storage.engine.txn_aborts"));
  printf("pages alloc/freed : %llu / %llu\n",
         count("storage.engine.pages_allocated"),
         count("storage.engine.pages_freed"));
  printf("pool size/cap     : %zu / %zu frames (%zu shards)\n", pool.size(),
         pool.capacity(), pool.shard_count());
  printf("pool hits/misses  : %llu / %llu\n", count("storage.pool.hits"),
         count("storage.pool.misses"));
  // Prefetch vs demand: how much of the pool's disk traffic came in through
  // batched reads (storage.readbatch.*) instead of one-page demand misses.
  const unsigned long long prefetch_loads =
      count("storage.pool.prefetch_loads");
  if (prefetch_loads > 0) {
    printf("pool prefetch     : %llu loaded / %llu already resident "
           "(%llu preadv batches)\n",
           prefetch_loads, count("storage.pool.prefetch_hits"),
           count("storage.readbatch.batches"));
  }
  const unsigned long long checkpoints = count("storage.engine.checkpoints");
  if (checkpoints > 0) {
    printf("checkpoints       : %llu (%llu fuzzy, %llu deferred, "
           "%llu pages written behind)\n",
           checkpoints, count("storage.checkpoint.fuzzy"),
           count("storage.checkpoint.deferred"),
           count("storage.checkpoint.write_behind_pages"));
  }
  const uint64_t gc_fsyncs = snap.counter("storage.wal.group_commit.fsyncs");
  const uint64_t gc_commits = snap.counter("storage.wal.group_commit.commits");
  if (gc_fsyncs > 0) {
    printf("commits per fsync : %.2f (%llu commits / %llu batched fsyncs)\n",
           static_cast<double>(gc_commits) / static_cast<double>(gc_fsyncs),
           static_cast<unsigned long long>(gc_commits),
           static_cast<unsigned long long>(gc_fsyncs));
  }
  return Status::OK();
}

/// `.stats`: every counter/gauge/histogram in the engine's metrics registry
/// (see docs/OBSERVABILITY.md for the metric catalog).
Status CmdRegistryStats(Database& db) {
  const auto snap = db.engine().metrics().TakeSnapshot();
  printf("%s", snap.RenderText().c_str());
  // txn.commits_per_fsync is kept as an integer gauge in the registry; echo
  // the exact ratio here where group commit has run.
  const uint64_t gc_fsyncs = snap.counter("storage.wal.group_commit.fsyncs");
  const uint64_t gc_commits = snap.counter("storage.wal.group_commit.commits");
  if (gc_fsyncs > 0) {
    printf("txn.commits_per_fsync (exact) %.3f\n",
           static_cast<double>(gc_commits) / static_cast<double>(gc_fsyncs));
  }
  return Status::OK();
}

Status Dispatch(Database& db, const std::string& line, bool* quit) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) return Status::OK();
  if (cmd == "quit" || cmd == "exit") {
    *quit = true;
    return Status::OK();
  }
  if (cmd == "help") {
    PrintHelp();
    return Status::OK();
  }
  if (cmd == "clusters") return CmdClusters(db);
  if (cmd == "types") return CmdTypes(db);
  if (cmd == "indexes") return CmdIndexes(db);
  if (cmd == "triggers") return CmdTriggers(db);
  if (cmd == "stats") return CmdStats(db);
  if (cmd == ".stats") return CmdRegistryStats(db);
  if (cmd == "verify") {
    ode::VerifyReport report;
    ODE_RETURN_IF_ERROR(ode::VerifyDatabase(db, &report));
    printf("%s\n", report.ToString().c_str());
    return Status::OK();
  }
  if (cmd == "vacuum") {
    auto released = db.Vacuum();
    ODE_RETURN_IF_ERROR(released.status());
    printf("released %u page(s) (%u KiB)\n", released.value(),
           released.value() * 4);
    return Status::OK();
  }
  if (cmd == "checkpoint") {
    ODE_RETURN_IF_ERROR(db.engine().Checkpoint());
    printf("checkpointed.\n");
    return Status::OK();
  }
  if (cmd == "scan") {
    ClusterId cluster;
    int limit = 20;
    if (!(in >> cluster)) {
      return Status::InvalidArgument("usage: scan <cluster> [limit]");
    }
    in >> limit;
    return CmdScan(db, cluster, limit);
  }
  if (cmd == "object") {
    ClusterId cluster;
    LocalOid local;
    if (!(in >> cluster >> local)) {
      return Status::InvalidArgument("usage: object <cluster> <oid>");
    }
    return CmdObject(db, cluster, local);
  }
  return Status::InvalidArgument("unknown command '" + cmd +
                                 "' (try 'help')");
}

// --- Remote mode (--connect, docs/SERVER.md) --------------------------------

/// Busy means the server's admission control shed the request — a retryable
/// condition scripts should distinguish from hard failures.
int ExitCodeFor(const Status& s) {
  if (s.ok()) return 0;
  return s.IsBusy() ? 3 : 1;
}

void PrintError(const Status& s) {
  if (s.IsBusy()) {
    fprintf(stderr, "busy (retryable): %s\n", s.message().c_str());
  } else {
    fprintf(stderr, "error: %s\n", s.ToString().c_str());
  }
}

void PrintRemoteHelp() {
  printf(
      "remote commands (ode_serverd wire protocol):\n"
      "  clusters                  list clusters with entry counts\n"
      "  mkcluster <type>          create the cluster for a type name\n"
      "  scan <cluster> [limit]    stream a cluster's records\n"
      "  get <cluster> <oid>       read one record\n"
      "  insert <cluster> <text>   insert raw bytes, print the new oid\n"
      "  set <cluster> <oid> <text>  overwrite a record's bytes\n"
      "  del <cluster> <oid>       delete an object\n"
      "  begin / snapshot          open a (snapshot) transaction\n"
      "  commit / abort            end the open transaction\n"
      "  ping [delay_ms]           round-trip the server\n"
      "  stats                     server metrics registry (/statsz)\n"
      "  quit                      exit\n");
}

Status RemoteDispatch(ode::server::Client& client, const std::string& line,
                      bool* quit) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) return Status::OK();
  if (cmd == "quit" || cmd == "exit") {
    *quit = true;
    return Status::OK();
  }
  if (cmd == "help") {
    PrintRemoteHelp();
    return Status::OK();
  }
  if (cmd == "ping") {
    uint32_t delay_ms = 0;
    in >> delay_ms;
    return client.Ping(delay_ms);
  }
  if (cmd == "begin") return client.Begin();
  if (cmd == "snapshot") return client.BeginSnapshot();
  if (cmd == "commit") return client.Commit();
  if (cmd == "abort") return client.Abort();
  if (cmd == "clusters") {
    ODE_ASSIGN_OR_RETURN(ode::server::ListClustersResp resp,
                         client.ListClusters());
    printf("%-6s %-32s %s\n", "id", "type", "entries");
    for (const auto& c : resp.clusters) {
      printf("%-6u %-32s %u\n", c.id, c.type_name.c_str(), c.entries);
    }
    return Status::OK();
  }
  if (cmd == "mkcluster") {
    std::string type_name;
    if (!(in >> type_name)) {
      return Status::InvalidArgument("usage: mkcluster <type>");
    }
    ODE_ASSIGN_OR_RETURN(uint32_t cluster, client.EnsureCluster(type_name));
    printf("cluster %u\n", cluster);
    return Status::OK();
  }
  if (cmd == "scan") {
    ode::server::ScanReq req;
    if (!(in >> req.cluster)) {
      return Status::InvalidArgument("usage: scan <cluster> [limit]");
    }
    req.limit = 20;
    in >> req.limit;
    printf("%-8s %-6s %-6s %s\n", "oid", "vnum", "bytes", "preview");
    ODE_ASSIGN_OR_RETURN(
        uint64_t count,
        client.Scan(req, [](const ode::server::ScanRecord& rec) {
          printf("%-8u %-6u %-6zu %s\n", rec.local, rec.vnum,
                 rec.bytes.size(), Preview(rec.bytes).c_str());
        }));
    printf("(%llu record%s)\n", static_cast<unsigned long long>(count),
           count == 1 ? "" : "s");
    return Status::OK();
  }
  if (cmd == "get") {
    ClusterId cluster;
    LocalOid local;
    if (!(in >> cluster >> local)) {
      return Status::InvalidArgument("usage: get <cluster> <oid>");
    }
    ODE_ASSIGN_OR_RETURN(ode::server::ReadResp resp,
                         client.Read(cluster, local));
    printf("(%u:%u) type-code %u v%u, %zu bytes: %s\n", cluster, local,
           resp.type_code, resp.vnum, resp.bytes.size(),
           Preview(resp.bytes).c_str());
    return Status::OK();
  }
  if (cmd == "insert") {
    ClusterId cluster;
    if (!(in >> cluster)) {
      return Status::InvalidArgument("usage: insert <cluster> <text>");
    }
    std::string text;
    std::getline(in, text);
    while (!text.empty() && text.front() == ' ') text.erase(0, 1);
    ODE_ASSIGN_OR_RETURN(ode::server::OidResp oid,
                         client.Insert(cluster, text));
    printf("inserted (%u:%u)\n", oid.cluster, oid.local);
    return Status::OK();
  }
  if (cmd == "set") {
    ClusterId cluster;
    LocalOid local;
    if (!(in >> cluster >> local)) {
      return Status::InvalidArgument("usage: set <cluster> <oid> <text>");
    }
    std::string text;
    std::getline(in, text);
    while (!text.empty() && text.front() == ' ') text.erase(0, 1);
    ODE_RETURN_IF_ERROR(client.Write(cluster, local, text));
    printf("ok\n");
    return Status::OK();
  }
  if (cmd == "del") {
    ClusterId cluster;
    LocalOid local;
    if (!(in >> cluster >> local)) {
      return Status::InvalidArgument("usage: del <cluster> <oid>");
    }
    ODE_RETURN_IF_ERROR(client.Delete(cluster, local));
    printf("deleted (%u:%u)\n", cluster, local);
    return Status::OK();
  }
  if (cmd == "stats") {
    ODE_ASSIGN_OR_RETURN(std::string text, client.Statsz());
    printf("%s", text.c_str());
    return Status::OK();
  }
  return Status::InvalidArgument("unknown remote command '" + cmd +
                                 "' (try 'help')");
}

int RunRemote(const std::string& target, const std::string& script) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    fprintf(stderr, "ode_shell: --connect expects host:port\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = atoi(target.c_str() + colon + 1);

  ode::server::Client client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    PrintError(s);
    return ExitCodeFor(s);
  }

  bool quit = false;
  if (!script.empty()) {
    std::istringstream commands(script);
    std::string line;
    while (!quit && std::getline(commands, line, ';')) {
      Status status = RemoteDispatch(client, line, &quit);
      if (!status.ok()) {
        PrintError(status);
        return ExitCodeFor(status);
      }
    }
    return 0;
  }
  std::string line;
  printf("ode shell (remote %s:%d) — type 'help' for commands\n", host.c_str(),
         port);
  while (!quit) {
    printf("ode> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    Status status = RemoteDispatch(client, line, &quit);
    if (!status.ok()) PrintError(status);
  }
  return 0;
}

// --- Crash-fault soak (--faults) -------------------------------------------

constexpr int kSoakPages = 32;

/// Stamps `value` into every soak page inside one transaction.
Status StampRound(ode::StorageEngine* engine, uint64_t value) {
  ODE_ASSIGN_OR_RETURN(ode::TxnId txn, engine->BeginTxn());
  for (PageId page = 1; page <= kSoakPages; page++) {
    ode::PageHandle handle;
    ODE_RETURN_IF_ERROR(engine->GetPageWrite(page, &handle));
    ode::EncodeFixed64(handle.mutable_data(), value);
    ode::EncodeFixed32(handle.mutable_data() + 8, page * 2654435761u);
  }
  return engine->CommitTxn(txn);
}

/// Reads the stamps back; fails unless every page carries the same value.
Status ReadStamp(ode::StorageEngine* engine, uint64_t* value) {
  *value = 0;
  for (PageId page = 1; page <= kSoakPages; page++) {
    ode::PageHandle handle;
    ODE_RETURN_IF_ERROR(engine->GetPageRead(page, &handle));
    const uint64_t stamp = ode::DecodeFixed64(handle.data());
    if (stamp != 0 &&
        ode::DecodeFixed32(handle.data() + 8) != page * 2654435761u) {
      return Status::Corruption("soak page " + std::to_string(page) +
                                " has a damaged check word");
    }
    if (page == 1) {
      *value = stamp;
    } else if (stamp != *value) {
      return Status::Corruption(
          "torn round: page 1 carries stamp " + std::to_string(*value) +
          " but page " + std::to_string(page) + " carries " +
          std::to_string(stamp));
    }
  }
  return Status::OK();
}

/// Each round injects a fault at a random mutating-syscall site (sometimes
/// torn), crashes, recovers with a clean environment and verifies the stamp
/// transaction applied all-or-nothing. Returns a process exit code.
int RunFaultSoak(const std::string& path, int rounds) {
  ode::Random rng(0x50AC);
  uint64_t durable = 0;

  // Round 0: create the database and the soak pages with no faults.
  Status setup = [&]() -> Status {
    std::unique_ptr<ode::StorageEngine> engine;
    ODE_RETURN_IF_ERROR(
        ode::StorageEngine::Open(path, ode::EngineOptions(), &engine));
    ODE_ASSIGN_OR_RETURN(ode::TxnId txn, engine->BeginTxn());
    for (int i = 0; i < kSoakPages; i++) {
      PageId page;
      ode::PageHandle handle;
      ODE_RETURN_IF_ERROR(engine->AllocPage(&page, &handle));
    }
    ODE_RETURN_IF_ERROR(engine->CommitTxn(txn));
    ODE_RETURN_IF_ERROR(StampRound(engine.get(), 0));
    return engine->Close();
  }();
  if (!setup.ok()) {
    fprintf(stderr, "ode_shell --faults: setup: %s\n",
            setup.ToString().c_str());
    return 1;
  }

  int crashes = 0, commits = 0;
  for (int round = 1; round <= rounds; round++) {
    ode::FaultInjectionEnv fenv;
    // A stamp round issues ~kSoakPages+3 mutating syscalls; aiming past the
    // end sometimes gives fault-free (committing) rounds.
    fenv.FailNthMutatingOp(1 + rng.Uniform(kSoakPages + 8),
                           /*torn=*/rng.PercentTrue(30));
    {
      ode::EngineOptions options;
      options.env = &fenv;
      std::unique_ptr<ode::StorageEngine> engine;
      Status s = ode::StorageEngine::Open(path, options, &engine);
      if (!s.ok()) {
        fprintf(stderr, "ode_shell --faults: round %d open: %s\n", round,
                s.ToString().c_str());
        return 1;
      }
      Status stamped = StampRound(engine.get(), round);
      if (stamped.ok()) commits++;
      if (fenv.fault_fired()) crashes++;
      engine->SimulateCrash();
    }
    // Recover with the real environment and verify atomicity.
    std::unique_ptr<ode::StorageEngine> engine;
    Status s = ode::StorageEngine::Open(path, ode::EngineOptions(), &engine);
    uint64_t stamp = 0;
    if (s.ok()) s = ReadStamp(engine.get(), &stamp);
    if (s.ok() && stamp != durable && stamp != static_cast<uint64_t>(round)) {
      s = Status::Corruption("recovered stamp " + std::to_string(stamp) +
                             " is neither the last durable round " +
                             std::to_string(durable) + " nor round " +
                             std::to_string(round));
    }
    if (s.ok()) {
      durable = stamp;
      s = engine->Close();
    }
    if (!s.ok()) {
      fprintf(stderr, "ode_shell --faults: round %d: %s\n", round,
              s.ToString().c_str());
      return 1;
    }
  }
  printf("fault soak: %d rounds, %d injected crashes, %d clean commits, "
         "all recoveries atomic\n",
         rounds, crashes, commits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string script;
  std::string connect;
  bool faults = false;
  int fault_rounds = 100;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "-c" && i + 1 < argc) {
      script = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--faults") {
      faults = true;
      if (i + 1 < argc && isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
        fault_rounds = atoi(argv[++i]);
      }
    } else if (path.empty()) {
      path = arg;
    } else {
      fprintf(stderr,
              "usage: ode_shell <db> [-c \"cmd; cmd\"] | --connect host:port "
              "[-c ...] | <db> --faults [n]\n");
      return 2;
    }
  }
  if (!connect.empty()) {
    return RunRemote(connect, script);
  }
  if (path.empty()) {
    fprintf(stderr,
            "usage: ode_shell <db> [-c \"cmd; cmd\"] | --connect host:port "
            "[-c ...] | <db> --faults [n]\n");
    return 2;
  }
  if (faults) {
    return RunFaultSoak(path, fault_rounds);
  }

  ode::DatabaseOptions options;
  options.engine.wal_sync = ode::Wal::SyncMode::kNoSync;
  std::unique_ptr<Database> db;
  Status s = Database::Open(path, options, &db);
  if (!s.ok()) {
    fprintf(stderr, "ode_shell: %s\n", s.ToString().c_str());
    return 1;
  }

  bool quit = false;
  if (!script.empty()) {
    std::istringstream commands(script);
    std::string line;
    while (!quit && std::getline(commands, line, ';')) {
      Status status = Dispatch(*db, line, &quit);
      if (!status.ok()) {
        PrintError(status);
        return ExitCodeFor(status);
      }
    }
  } else {
    std::string line;
    printf("ode shell — type 'help' for commands\n");
    while (!quit) {
      printf("ode> ");
      fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      Status status = Dispatch(*db, line, &quit);
      if (!status.ok()) {
        PrintError(status);
      }
    }
  }
  s = db->Close();
  if (!s.ok()) {
    fprintf(stderr, "ode_shell: close: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
