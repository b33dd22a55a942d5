#ifndef ODEBENCH_MODELS_H_
#define ODEBENCH_MODELS_H_

// Persistent classes the four odebench workloads store. Every field is
// fixed-width or a fixed-length string, so each class has one encoded size
// and "live user bytes" is an exact count (objects x EncodedSize).

#include <cstdint>
#include <string>
#include <utility>

#include "core/ode.h"

namespace odebench {

/// A bank account: oltp_zipf and wire_mix move balance between two of them
/// and check that the sum over all accounts never changes. `pad` brings the
/// record to about 200 bytes.
class Account {
 public:
  Account() = default;
  Account(uint64_t id, int64_t balance, std::string pad)
      : id_(id), balance_(balance), pad_(std::move(pad)) {}
  uint64_t id() const { return id_; }
  int64_t balance() const { return balance_; }
  void set_balance(int64_t b) { balance_ = b; }

  template <typename AR>
  void OdeFields(AR& ar) {
    ar(id_, balance_, pad_);
  }

 private:
  uint64_t id_ = 0;
  int64_t balance_ = 0;
  std::string pad_;
};

/// scan_snapshot's rows (the E15 shape): a name, an age that the filtered
/// Count tests, and an integral income that Sum adds up.
class Person {
 public:
  Person() = default;
  Person(std::string name, int age, double income)
      : name_(std::move(name)), age_(age), income_(income) {}
  int age() const { return age_; }
  double income() const { return income_; }
  void set_income(double v) { income_ = v; }

  template <typename AR>
  void OdeFields(AR& ar) {
    ar(name_, age_, income_);
  }

 private:
  std::string name_;
  int age_ = 0;
  double income_ = 0;
};

/// durable_commit's rows: `key` is indexed ("item_key") and rewritten by
/// every update; `version` counts acknowledged updates so recovery can be
/// checked against what clients were told.
class Item {
 public:
  Item() = default;
  Item(uint64_t id, uint64_t key, uint64_t version, std::string payload)
      : id_(id), key_(key), version_(version), payload_(std::move(payload)) {}
  uint64_t id() const { return id_; }
  uint64_t key() const { return key_; }
  uint64_t version() const { return version_; }
  void Rekey(uint64_t key) {
    key_ = key;
    version_++;
  }

  template <typename AR>
  void OdeFields(AR& ar) {
    ar(id_, key_, version_, payload_);
  }

 private:
  uint64_t id_ = 0;
  uint64_t key_ = 0;
  uint64_t version_ = 0;
  std::string payload_;
};

/// Rows the layer ladder inserts into a side cluster of the workload's
/// database, for the rungs (New, index probe) the workload itself lacks.
class LadderRow {
 public:
  LadderRow() = default;
  LadderRow(uint64_t id, uint64_t key) : id_(id), key_(key) {}
  uint64_t id() const { return id_; }
  uint64_t key() const { return key_; }

  template <typename AR>
  void OdeFields(AR& ar) {
    ar(id_, key_);
  }

 private:
  uint64_t id_ = 0;
  uint64_t key_ = 0;
};

/// Encoded size of one object, as the object store keeps it.
template <typename T>
size_t EncodedSize(T obj) {
  std::string out;
  ode::SerializeTo(obj, &out);
  return out.size();
}

}  // namespace odebench

ODE_REGISTER_CLASS(odebench::Account);
ODE_REGISTER_CLASS(odebench::Person);
ODE_REGISTER_CLASS(odebench::Item);
ODE_REGISTER_CLASS(odebench::LadderRow);

#endif  // ODEBENCH_MODELS_H_
