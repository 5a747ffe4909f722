// Copyright 2026 The siot-trust Authors.
// Characteristic-based task model (paper §4.2). A task τ is a bundle of
// weighted characteristics {a_j(τ)}; the weights w_j(τ) express how
// important each characteristic is within the task and drive the
// trustworthiness-inference function f (Eqs. 2–4).

#ifndef SIOT_TRUST_TASK_H_
#define SIOT_TRUST_TASK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trust/types.h"

namespace siot::trust {

/// One weighted characteristic within a task.
struct WeightedCharacteristic {
  CharacteristicId id = 0;
  /// Relative importance w_j(τ) > 0. Tasks normalize weights to sum 1.
  double weight = 1.0;

  bool operator==(const WeightedCharacteristic&) const = default;
};

/// Immutable task type: a named bundle of weighted characteristics.
class Task {
 public:
  /// Builds a task; weights are normalized to sum to 1. Errors if the list
  /// is empty, has duplicate characteristics, non-positive weights, or ids
  /// out of range.
  static StatusOr<Task> Create(TaskId id, std::string name,
                               std::vector<WeightedCharacteristic> parts);

  /// Convenience: equal weights.
  static StatusOr<Task> CreateUniform(
      TaskId id, std::string name,
      const std::vector<CharacteristicId>& characteristics);

  /// Rebuilds a task from weights that are ALREADY normalized (a prior
  /// task's parts(), e.g. from a serialized checkpoint). Validates like
  /// Create but skips the renormalization divide, so restoring a
  /// serialized task reproduces its weights bit for bit — renormalizing
  /// would perturb them whenever the stored weights do not sum to exactly
  /// 1.0 in floating point (1/3 + 1/3 + 1/3 != 1.0).
  static StatusOr<Task> Restore(TaskId id, std::string name,
                                std::vector<WeightedCharacteristic> parts);

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }
  /// Normalized weighted characteristics, sorted by characteristic id.
  const std::vector<WeightedCharacteristic>& parts() const { return parts_; }
  /// Bitmask over characteristic ids.
  CharacteristicMask mask() const { return mask_; }
  std::size_t characteristic_count() const { return parts_.size(); }

  bool HasCharacteristic(CharacteristicId c) const {
    return (mask_ >> c) & 1ull;
  }
  /// Normalized weight of characteristic c; 0 if absent.
  double WeightOf(CharacteristicId c) const;

  /// True if every characteristic of this task appears in `cover`.
  bool CoveredBy(CharacteristicMask cover) const {
    return (mask_ & ~cover) == 0;
  }
  /// True if this task shares at least one characteristic with `other`.
  bool Overlaps(CharacteristicMask other) const {
    return (mask_ & other) != 0;
  }

 private:
  Task() = default;
  static StatusOr<Task> Build(TaskId id, std::string name,
                              std::vector<WeightedCharacteristic> parts,
                              bool normalize);
  TaskId id_ = kNoTask;
  std::string name_;
  std::vector<WeightedCharacteristic> parts_;
  CharacteristicMask mask_ = 0;
};

/// Registry of task types. Task ids are dense indexes into the catalog.
class TaskCatalog {
 public:
  /// Adds a task with the next free id. Errors as Task::Create; also errors
  /// on duplicate names.
  StatusOr<TaskId> Add(std::string name,
                       std::vector<WeightedCharacteristic> parts);
  StatusOr<TaskId> AddUniform(
      std::string name, const std::vector<CharacteristicId>& characteristics);

  /// Adds a task whose weights are already normalized (Task::Restore);
  /// used when deserializing a catalog.
  StatusOr<TaskId> Restore(std::string name,
                           std::vector<WeightedCharacteristic> parts);

  std::size_t size() const { return tasks_.size(); }
  const Task& Get(TaskId id) const;
  StatusOr<TaskId> FindByName(const std::string& name) const;

 private:
  std::vector<Task> tasks_;
};

/// Number of characteristics set in a mask.
inline std::size_t MaskSize(CharacteristicMask mask) {
  return static_cast<std::size_t>(__builtin_popcountll(mask));
}

}  // namespace siot::trust

#endif  // SIOT_TRUST_TASK_H_
