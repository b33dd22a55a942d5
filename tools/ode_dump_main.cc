// ode_dump: prints the schema and storage statistics of an ODE database.
//
// Usage: ode_dump <path/to/db>

#include <cstdio>

#include "core/ode.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: ode_dump <database-file>\n");
    return 2;
  }
  ode::DatabaseOptions options;
  options.engine.wal_sync = ode::Wal::SyncMode::kNoSync;
  std::unique_ptr<ode::Database> db;
  ode::Status s = ode::Database::Open(argv[1], options, &db);
  if (!s.ok()) {
    fprintf(stderr, "ode_dump: %s\n", s.ToString().c_str());
    return 1;
  }
  const ode::CatalogData& cat = db->catalog();

  printf("== ODE database: %s ==\n", argv[1]);
  printf("\ntypes (%zu):\n", cat.types.size());
  for (const auto& t : cat.types) {
    printf("  code %-4u %s\n", t.code, t.name.c_str());
  }

  printf("\nclusters (%zu):\n", cat.clusters.size());
  for (const auto& c : cat.clusters) {
    size_t objects = 0;
    ode::Status cs = db->RunTransaction([&](ode::Transaction& txn) -> ode::Status {
      return txn.ForEachHead(c.id, 0, [&](const ode::ObjectTable::Head&,
                                          bool*) {
        objects++;
        return ode::Status::OK();
      });
    });
    printf("  id %-4u type %-24s table-root page %-6u objects %zu%s\n", c.id,
           c.type_name.c_str(), c.table_root, objects,
           cs.ok() ? "" : " (scan failed)");
  }

  printf("\nindexes (%zu):\n", cat.indexes.size());
  for (const auto& i : cat.indexes) {
    printf("  %-24s cluster %-4u root-pointer page %u id %llu\n", i.name.c_str(),
           i.cluster, i.root_page,
           static_cast<unsigned long long>(i.id));
  }

  printf("\ntrigger activations (%zu):\n", cat.triggers.size());
  for (const auto& t : cat.triggers) {
    printf("  id %-6llu %s on (%u:%u)%s, %zu arg(s)\n",
           static_cast<unsigned long long>(t.trigger_id),
           t.trigger_name.c_str(), t.cluster, t.local,
           t.perpetual ? " [perpetual]" : "", t.params.size());
  }

  const auto snap = db->engine().metrics().TakeSnapshot();
  auto count = [&snap](const char* name) {
    return static_cast<unsigned long long>(snap.counter(name));
  };
  printf("\nbuffer pool: hits %llu misses %llu evictions %llu flushes %llu\n",
         count("storage.pool.hits"), count("storage.pool.misses"),
         count("storage.pool.evictions"), count("storage.pool.flushes"));
  s = db->Close();
  if (!s.ok()) {
    fprintf(stderr, "ode_dump: close: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
