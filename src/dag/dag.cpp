#include "dag/dag.h"

#include <algorithm>
#include <cstdlib>
#include <deque>

#include "util/logging.h"
#include "util/strings.h"

namespace vmp::dag {

using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

ConfigDag::ConfigDag(const ConfigDag& other) { *this = other; }

ConfigDag& ConfigDag::operator=(const ConfigDag& other) {
  if (this == &other) return *this;
  nodes_.clear();
  order_ = other.order_;
  for (const auto& [id, node] : other.nodes_) {
    Node copy;
    copy.action = node.action;
    copy.successors = node.successors;
    copy.predecessors = node.predecessors;
    if (node.error_subgraph) {
      copy.error_subgraph = std::make_unique<ConfigDag>(*node.error_subgraph);
    }
    nodes_.emplace(id, std::move(copy));
  }
  return *this;
}

Status ConfigDag::add_action(Action action) {
  if (action.id().empty()) {
    return Status(ErrorCode::kInvalidArgument, "action id must not be empty");
  }
  if (action.operation().empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "action operation must not be empty (id=" + action.id() + ")");
  }
  if (action.id() == "START" || action.id() == "FINISH") {
    return Status(ErrorCode::kInvalidArgument,
                  "START/FINISH are reserved node ids");
  }
  if (nodes_.count(action.id())) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate action id: " + action.id());
  }
  order_.push_back(action.id());
  Node node;
  node.action = std::move(action);
  nodes_.emplace(order_.back(), std::move(node));
  return Status();
}

Status ConfigDag::add_edge(const std::string& from, const std::string& to) {
  if (from == to) {
    return Status(ErrorCode::kInvalidArgument, "self-loop on " + from);
  }
  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  if (from_it == nodes_.end()) {
    return Status(ErrorCode::kNotFound, "edge source not found: " + from);
  }
  if (to_it == nodes_.end()) {
    return Status(ErrorCode::kNotFound, "edge target not found: " + to);
  }
  if (from_it->second.successors.count(to)) {
    return Status(ErrorCode::kAlreadyExists,
                  "duplicate edge " + from + " -> " + to);
  }
  from_it->second.successors.insert(to);
  to_it->second.predecessors.insert(from);
  return Status();
}

Status ConfigDag::set_error_subgraph(const std::string& action_id,
                                     ConfigDag subgraph) {
  auto it = nodes_.find(action_id);
  if (it == nodes_.end()) {
    return Status(ErrorCode::kNotFound,
                  "no action for error sub-graph: " + action_id);
  }
  VMP_RETURN_IF_ERROR(subgraph.validate());
  it->second.error_subgraph = std::make_unique<ConfigDag>(std::move(subgraph));
  return Status();
}

const Action* ConfigDag::action(const std::string& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second.action;
}

const std::set<std::string>& ConfigDag::successors(const std::string& id) const {
  static const std::set<std::string> kEmpty;
  auto it = nodes_.find(id);
  return it == nodes_.end() ? kEmpty : it->second.successors;
}

const std::set<std::string>& ConfigDag::predecessors(
    const std::string& id) const {
  static const std::set<std::string> kEmpty;
  auto it = nodes_.find(id);
  return it == nodes_.end() ? kEmpty : it->second.predecessors;
}

std::size_t ConfigDag::edge_count() const {
  std::size_t n = 0;
  for (const auto& [id, node] : nodes_) n += node.successors.size();
  return n;
}

const ConfigDag* ConfigDag::error_subgraph(const std::string& action_id) const {
  auto it = nodes_.find(action_id);
  return it == nodes_.end() ? nullptr : it->second.error_subgraph.get();
}

Result<std::vector<std::string>> ConfigDag::topological_sort() const {
  // Kahn's algorithm with insertion-order tie-breaking: the ready list is
  // scanned in order_ sequence, so the output is deterministic.
  std::map<std::string, std::size_t> in_degree;
  for (const auto& [id, node] : nodes_) {
    in_degree[id] = node.predecessors.size();
  }

  std::vector<std::string> result;
  result.reserve(nodes_.size());
  std::set<std::string> emitted;

  while (result.size() < nodes_.size()) {
    bool progressed = false;
    for (const std::string& id : order_) {
      if (emitted.count(id)) continue;
      if (in_degree[id] != 0) continue;
      result.push_back(id);
      emitted.insert(id);
      for (const std::string& succ : nodes_.at(id).successors) {
        --in_degree[succ];
      }
      progressed = true;
    }
    if (!progressed) {
      // Remaining nodes all have in-degree > 0: cycle.  Name one member.
      std::string member;
      for (const std::string& id : order_) {
        if (!emitted.count(id)) {
          member = id;
          break;
        }
      }
      return Result<std::vector<std::string>>(
          Error(ErrorCode::kInvalidArgument,
                "configuration DAG contains a cycle through '" + member + "'"));
    }
  }
  return result;
}

Status ConfigDag::validate() const {
  auto sorted = topological_sort();
  if (!sorted.ok()) return sorted.error();
  // Validate error sub-graphs recursively.
  for (const auto& [id, node] : nodes_) {
    if (node.error_subgraph) {
      Status s = node.error_subgraph->validate();
      if (!s.ok()) {
        return Status(s.error().code(),
                      "error sub-graph of '" + id + "': " + s.error().message());
      }
    }
  }
  return Status();
}

std::set<std::string> ConfigDag::ancestors(const std::string& id) const {
  std::set<std::string> out;
  std::deque<std::string> frontier(predecessors(id).begin(),
                                   predecessors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& pred : predecessors(current)) {
      if (!out.count(pred)) frontier.push_back(pred);
    }
  }
  return out;
}

std::set<std::string> ConfigDag::descendants(const std::string& id) const {
  std::set<std::string> out;
  std::deque<std::string> frontier(successors(id).begin(),
                                   successors(id).end());
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    if (!out.insert(current).second) continue;
    for (const std::string& succ : successors(current)) {
      if (!out.count(succ)) frontier.push_back(succ);
    }
  }
  return out;
}

bool ConfigDag::orders_before(const std::string& before,
                              const std::string& after) const {
  return ancestors(after).count(before) != 0;
}

Result<std::map<std::string, std::string>> ConfigDag::signature_index() const {
  std::map<std::string, std::string> index;
  for (const std::string& id : order_) {
    const std::string sig = nodes_.at(id).action.signature();
    auto [it, inserted] = index.emplace(sig, id);
    if (!inserted) {
      return Result<std::map<std::string, std::string>>(Error(
          ErrorCode::kInvalidArgument,
          "duplicate action signature '" + sig + "' (nodes '" + it->second +
              "' and '" + id + "'); matching requires unique signatures"));
    }
  }
  return index;
}

std::size_t ConfigDag::total_nodes_with_subgraphs() const {
  std::size_t n = nodes_.size();
  for (const auto& [id, node] : nodes_) {
    if (node.error_subgraph) n += node.error_subgraph->total_nodes_with_subgraphs();
  }
  return n;
}

bool ConfigDag::operator==(const ConfigDag& other) const {
  if (order_ != other.order_) return false;
  for (const auto& [id, node] : nodes_) {
    auto it = other.nodes_.find(id);
    if (it == other.nodes_.end()) return false;
    const Node& theirs = it->second;
    if (node.action.signature() != theirs.action.signature() ||
        node.action.scope() != theirs.action.scope() ||
        node.action.script() != theirs.action.script() ||
        node.successors != theirs.successors) {
      return false;
    }
    const bool mine_has = node.error_subgraph != nullptr;
    const bool theirs_has = theirs.error_subgraph != nullptr;
    if (mine_has != theirs_has) return false;
    if (mine_has && !(*node.error_subgraph == *theirs.error_subgraph)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// DagBuilder
// ---------------------------------------------------------------------------

namespace {
void record(util::Status* first_error, util::Status status) {
  if (first_error->ok() && !status.ok()) *first_error = std::move(status);
}
}  // namespace

DagBuilder& DagBuilder::guest(const std::string& id,
                              const std::string& operation,
                              std::map<std::string, std::string> params) {
  Action a(id, operation, ActionScope::kGuest);
  for (auto& [k, v] : params) a.set_param(k, std::move(v));
  return action(std::move(a));
}

DagBuilder& DagBuilder::host(const std::string& id,
                             const std::string& operation,
                             std::map<std::string, std::string> params) {
  Action a(id, operation, ActionScope::kHost);
  for (auto& [k, v] : params) a.set_param(k, std::move(v));
  return action(std::move(a));
}

DagBuilder& DagBuilder::action(Action a) {
  record(&first_error_, dag_.add_action(std::move(a)));
  return *this;
}

DagBuilder& DagBuilder::edge(const std::string& from, const std::string& to) {
  record(&first_error_, dag_.add_edge(from, to));
  return *this;
}

DagBuilder& DagBuilder::chain(const std::vector<std::string>& ids) {
  for (std::size_t i = 1; i < ids.size(); ++i) {
    edge(ids[i - 1], ids[i]);
  }
  return *this;
}

DagBuilder& DagBuilder::error_subgraph(const std::string& action_id,
                                       ConfigDag subgraph) {
  record(&first_error_, dag_.set_error_subgraph(action_id, std::move(subgraph)));
  return *this;
}

ConfigDag DagBuilder::build() {
  auto result = try_build();
  if (!result.ok()) {
    util::Logger("dag-builder").error()
        << "build failed: " << result.error().to_string();
    std::abort();
  }
  return std::move(result).value();
}

Result<ConfigDag> DagBuilder::try_build() {
  if (!first_error_.ok()) return first_error_.propagate<ConfigDag>();
  Status valid = dag_.validate();
  if (!valid.ok()) return valid.propagate<ConfigDag>();
  return std::move(dag_);
}

}  // namespace vmp::dag
