// Copyright 2026 The siot-trust Authors.

#include "trust/task.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"

namespace siot::trust {

StatusOr<Task> Task::Create(TaskId id, std::string name,
                            std::vector<WeightedCharacteristic> parts) {
  return Build(id, std::move(name), std::move(parts), /*normalize=*/true);
}

StatusOr<Task> Task::Restore(TaskId id, std::string name,
                             std::vector<WeightedCharacteristic> parts) {
  return Build(id, std::move(name), std::move(parts), /*normalize=*/false);
}

StatusOr<Task> Task::Build(TaskId id, std::string name,
                           std::vector<WeightedCharacteristic> parts,
                           bool normalize) {
  if (parts.empty()) {
    return Status::InvalidArgument("task '" + name +
                                   "' has no characteristics");
  }
  std::sort(parts.begin(), parts.end(),
            [](const WeightedCharacteristic& a,
               const WeightedCharacteristic& b) { return a.id < b.id; });
  CharacteristicMask mask = 0;
  double total_weight = 0.0;
  for (const auto& part : parts) {
    if (part.id >= kMaxCharacteristics) {
      return Status::OutOfRange(
          StrFormat("characteristic id %u out of range", part.id));
    }
    if ((mask >> part.id) & 1ull) {
      return Status::InvalidArgument(
          StrFormat("duplicate characteristic %u in task '%s'", part.id,
                    name.c_str()));
    }
    if (!(part.weight > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("non-positive weight for characteristic %u", part.id));
    }
    mask |= 1ull << part.id;
    total_weight += part.weight;
  }
  if (normalize) {
    for (auto& part : parts) part.weight /= total_weight;
  }

  Task task;
  task.id_ = id;
  task.name_ = std::move(name);
  task.parts_ = std::move(parts);
  task.mask_ = mask;
  return task;
}

StatusOr<Task> Task::CreateUniform(
    TaskId id, std::string name,
    const std::vector<CharacteristicId>& characteristics) {
  std::vector<WeightedCharacteristic> parts;
  parts.reserve(characteristics.size());
  for (CharacteristicId c : characteristics) parts.push_back({c, 1.0});
  return Create(id, std::move(name), std::move(parts));
}

double Task::WeightOf(CharacteristicId c) const {
  for (const auto& part : parts_) {
    if (part.id == c) return part.weight;
  }
  return 0.0;
}

StatusOr<TaskId> TaskCatalog::Add(std::string name,
                                  std::vector<WeightedCharacteristic> parts) {
  for (const Task& existing : tasks_) {
    if (existing.name() == name) {
      return Status::AlreadyExists("task name '" + name + "' already used");
    }
  }
  const auto id = static_cast<TaskId>(tasks_.size());
  SIOT_ASSIGN_OR_RETURN(Task task,
                        Task::Create(id, std::move(name), std::move(parts)));
  tasks_.push_back(std::move(task));
  return id;
}

StatusOr<TaskId> TaskCatalog::Restore(
    std::string name, std::vector<WeightedCharacteristic> parts) {
  for (const Task& existing : tasks_) {
    if (existing.name() == name) {
      return Status::AlreadyExists("task name '" + name + "' already used");
    }
  }
  const auto id = static_cast<TaskId>(tasks_.size());
  SIOT_ASSIGN_OR_RETURN(
      Task task, Task::Restore(id, std::move(name), std::move(parts)));
  tasks_.push_back(std::move(task));
  return id;
}

StatusOr<TaskId> TaskCatalog::AddUniform(
    std::string name, const std::vector<CharacteristicId>& characteristics) {
  std::vector<WeightedCharacteristic> parts;
  parts.reserve(characteristics.size());
  for (CharacteristicId c : characteristics) parts.push_back({c, 1.0});
  return Add(std::move(name), std::move(parts));
}

const Task& TaskCatalog::Get(TaskId id) const {
  SIOT_CHECK_MSG(id < tasks_.size(), "task id %u out of range (%zu tasks)",
                 id, tasks_.size());
  return tasks_[id];
}

StatusOr<TaskId> TaskCatalog::FindByName(const std::string& name) const {
  for (const Task& task : tasks_) {
    if (task.name() == name) return task.id();
  }
  return Status::NotFound("no task named '" + name + "'");
}

}  // namespace siot::trust
