// Delta mutations against a port-numbered graph (the "dynamic graphs" layer).
//
// A MutationBatch is a small, explicit description of change: label channel
// rewrites (interpreted by the labeling layer — graph code never sees label
// types) and leaf-level edge rewires (detach a degree-1 node from its unique
// neighbor, reattach it elsewhere).  Rewires are the structural delta class
// every tree/pseudotree family in the registry stays closed under: detaching
// a leaf and re-hanging it keeps the graph simple and the port assignment a
// bijection at every node.
//
// Apply semantics (sequential, batch order):
//   * rewire {leaf, new_parent} requires deg(leaf) == 1 at its turn and
//     leaf != new_parent.  The edge at the old parent's port q is removed and
//     later ports compact down by one (ports stay exactly 1..deg); the new
//     edge lands on new_parent's next free port, and the leaf keeps port 1.
//   * new_parent == old_parent is allowed: the port renumbering at the parent
//     is a real structural edit (the leaf moves to the last port).
//
// Copy-on-write contract: apply_mutation never touches the input storage.  It
// materializes the post-batch CSR into *fresh owned arrays*, so every
// GraphView borrowed from the old graph stays valid.  In-flight readers
// finish against the old view; the query service's AnswerMemo
// (runtime/answer_memo.hpp) evicts only the answers a batch's changed nodes
// (changed_nodes below) can reach.
//
// Two independent implementations back the differential harness:
// apply_mutation splices the CSR — it keeps port vectors only for the nodes
// the batch touches, edits them in batch order, then writes the new offsets
// in one pass (each shifted by the running change in degree) and copies the
// adjacency between touched rows as contiguous ranges (no per-node
// allocation: its O(n) part is writing the two fresh arrays);
// apply_mutation_naive replays the same semantics through Graph::Builder
// (whose build() validates port bijectivity from scratch).
// check::check_all requires the two CSRs to be byte-identical on every fuzz
// case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace volcal {

// One leaf-level structural edit: detach degree-1 node `leaf` from its
// unique neighbor, reattach it to `new_parent`.
struct LeafRewire {
  NodeIndex leaf = kNoNode;
  NodeIndex new_parent = kNoNode;
};

// Label channels a LabelUpdate may address.  The graph layer only transports
// these; which channels a problem family supports — and what `value` means —
// is interpreted by labels/label_mutation.hpp and enforced by the registry's
// mutate path (unsupported channel => std::invalid_argument).
enum class LabelChannel : std::uint8_t {
  Parent = 0,    // P(v) port claim (0 = the label ⊥)
  Left = 1,      // LC(v) port claim
  Right = 2,     // RC(v) port claim
  InColor = 3,   // χ_in ∈ {0 = Red, 1 = Blue}
  LeftNbr = 4,   // LN(v) port claim (balanced-tree labelings)
  RightNbr = 5,  // RN(v) port claim
  Level = 6,     // level(v) (hybrid / HH labelings)
  Side = 7,      // selector bit b_v ∈ {0, 1} (HH labelings)
};

inline const char* label_channel_name(LabelChannel c) {
  switch (c) {
    case LabelChannel::Parent: return "parent";
    case LabelChannel::Left: return "left";
    case LabelChannel::Right: return "right";
    case LabelChannel::InColor: return "color";
    case LabelChannel::LeftNbr: return "leftnbr";
    case LabelChannel::RightNbr: return "rightnbr";
    case LabelChannel::Level: return "level";
    case LabelChannel::Side: return "side";
  }
  return "?";
}

struct LabelUpdate {
  NodeIndex node = kNoNode;
  LabelChannel channel = LabelChannel::Parent;
  int value = 0;
};

struct MutationBatch {
  std::vector<LeafRewire> rewires;
  std::vector<LabelUpdate> label_updates;

  bool empty() const { return rewires.empty() && label_updates.empty(); }
};

// Result of applying a batch's structural part.
struct AppliedMutation {
  Graph graph;  // fresh owned storage

  // Structural endpoints of the batch — for each rewire the leaf, its old
  // parent (resolved at the rewire's turn in the sequential application), and
  // the new parent — sorted and deduplicated: exactly the nodes whose
  // adjacency lists differ.  Label updates are not included.
  std::vector<NodeIndex> touched;
};

// Applies `batch`'s rewires to `g`, producing fresh storage (see the
// copy-on-write contract above).  Throws std::invalid_argument on an invalid
// rewire (node out of range, deg(leaf) != 1 at its turn, self-rewire); the
// input is never modified either way.  Label updates are not interpreted
// here (the labeling layer owns them) but their node indices are validated.
AppliedMutation apply_mutation(GraphView g, const MutationBatch& batch);

// Every node whose adjacency or labels `batch` changes: the structural
// `touched` set plus each relabelled node, sorted and deduplicated.  An
// answer computed from v is unchanged unless one of these lies within its
// distance of v (AnswerMemo::evict_region).
std::vector<NodeIndex> changed_nodes(const MutationBatch& batch,
                                     std::span<const NodeIndex> touched);

// Reference implementation: replays the identical semantics on explicit
// (port, neighbor) tables and rebuilds through Graph::Builder — whose
// build() re-validates port bijectivity from scratch.  Differential-harness
// use only.
Graph apply_mutation_naive(GraphView g, const MutationBatch& batch);

}  // namespace volcal
