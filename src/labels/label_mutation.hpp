// Interpretation of LabelUpdate channels (graph/mutation.hpp) for each typed
// labeling.  The graph layer only transports (node, channel, value) triples;
// this header is where a channel lands in a concrete label vector — and where
// a channel a labeling does not carry is rejected.
//
// Values stay inside the labelings' claim domains: port claims are claims
// (Def. 3.1 — nothing forces them to describe a real tree), so any port
// value in [0, kMaxPortClaim] is admissible and dangling claims resolve to ⊥
// exactly as generated inconsistencies do.  Color / side are bits; level is
// clamped to non-negative (the solvers classify out-of-band level claims as
// inconsistencies, same as shape-variant defects).  io::Snapshot::load holds
// stored labels to the same domains.
#pragma once

#include <stdexcept>
#include <string>

#include "graph/mutation.hpp"
#include "labels/instances.hpp"

namespace volcal {

namespace detail {

[[noreturn]] inline void throw_bad_channel(LabelChannel c, const char* labeling) {
  throw std::invalid_argument(std::string("apply_label_update: channel '") +
                              label_channel_name(c) + "' is not carried by " + labeling +
                              " labels");
}

inline void check_bit(LabelChannel c, int value) {
  if (value != 0 && value != 1) {
    throw std::invalid_argument(std::string("apply_label_update: channel '") +
                                label_channel_name(c) + "' takes values {0, 1}, got " +
                                std::to_string(value));
  }
}

inline void check_port_claim(LabelChannel c, int value) {
  if (value < 0 || value > kMaxPortClaim) {
    throw std::invalid_argument(std::string("apply_label_update: port claim '") +
                                label_channel_name(c) + "' out of range: " +
                                std::to_string(value));
  }
}

// The three channels every labeling carries.  Returns false if `c` is not a
// tree channel (the caller then tries its own channels).
inline bool apply_tree_channel(TreeLabeling& t, NodeIndex v, LabelChannel c, int value) {
  switch (c) {
    case LabelChannel::Parent:
      check_port_claim(c, value);
      t.parent[static_cast<std::size_t>(v)] = static_cast<PortClaim>(value);
      return true;
    case LabelChannel::Left:
      check_port_claim(c, value);
      t.left[static_cast<std::size_t>(v)] = static_cast<PortClaim>(value);
      return true;
    case LabelChannel::Right:
      check_port_claim(c, value);
      t.right[static_cast<std::size_t>(v)] = static_cast<PortClaim>(value);
      return true;
    default:
      return false;
  }
}

inline bool apply_balanced_channel(BalancedTreeLabeling& b, NodeIndex v, LabelChannel c,
                                   int value) {
  if (apply_tree_channel(b.tree, v, c, value)) return true;
  switch (c) {
    case LabelChannel::LeftNbr:
      check_port_claim(c, value);
      b.left_nbr[static_cast<std::size_t>(v)] = static_cast<PortClaim>(value);
      return true;
    case LabelChannel::RightNbr:
      check_port_claim(c, value);
      b.right_nbr[static_cast<std::size_t>(v)] = static_cast<PortClaim>(value);
      return true;
    default:
      return false;
  }
}

}  // namespace detail

inline void apply_label_update(ColoredTreeLabeling& l, const LabelUpdate& u) {
  if (detail::apply_tree_channel(l.tree, u.node, u.channel, u.value)) return;
  if (u.channel == LabelChannel::InColor) {
    detail::check_bit(u.channel, u.value);
    l.color[static_cast<std::size_t>(u.node)] = static_cast<Color>(u.value);
    return;
  }
  detail::throw_bad_channel(u.channel, "colored-tree");
}

inline void apply_label_update(BalancedTreeLabeling& l, const LabelUpdate& u) {
  if (detail::apply_balanced_channel(l, u.node, u.channel, u.value)) return;
  detail::throw_bad_channel(u.channel, "balanced-tree");
}

inline void apply_label_update(HybridLabeling& l, const LabelUpdate& u) {
  if (detail::apply_balanced_channel(l.bal, u.node, u.channel, u.value)) return;
  switch (u.channel) {
    case LabelChannel::InColor:
      detail::check_bit(u.channel, u.value);
      l.color[static_cast<std::size_t>(u.node)] = static_cast<Color>(u.value);
      return;
    case LabelChannel::Level:
      if (u.value < 0) {
        throw std::invalid_argument("apply_label_update: negative level claim");
      }
      l.level_in[static_cast<std::size_t>(u.node)] = u.value;
      return;
    default:
      detail::throw_bad_channel(u.channel, "hybrid");
  }
}

inline void apply_label_update(HHLabeling& l, const LabelUpdate& u) {
  if (u.channel == LabelChannel::Side) {
    detail::check_bit(u.channel, u.value);
    l.side[static_cast<std::size_t>(u.node)] = static_cast<std::uint8_t>(u.value);
    return;
  }
  apply_label_update(l.hybrid, u);
}

// Applies every label update of `batch` to `labels`.  Node indices are
// assumed pre-validated (apply_mutation checks them against the graph).
template <typename Labels>
void apply_label_updates(Labels& labels, const MutationBatch& batch) {
  for (const LabelUpdate& u : batch.label_updates) apply_label_update(labels, u);
}

}  // namespace volcal
