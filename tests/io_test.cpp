// Graphviz export pins (io/dot.hpp).
#include <gtest/gtest.h>

#include <string>

#include "labels/generators.hpp"
#include "volcal/io.hpp"

namespace volcal {
namespace {

TEST(Dot, LeafColoringRendersAllParts) {
  auto inst = make_complete_binary_tree(2, Color::Red, Color::Blue);
  const std::string dot = io::to_dot(inst);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // leaves
  EXPECT_NE(dot.find("salmon"), std::string::npos);        // red internals
  EXPECT_NE(dot.find("lightblue"), std::string::npos);     // blue leaves
  EXPECT_NE(dot.find("LC"), std::string::npos);
}

TEST(Dot, MaxNodesTruncates) {
  auto inst = make_complete_binary_tree(5, Color::Red, Color::Blue);
  const std::string small = io::to_dot(inst, 3);
  EXPECT_EQ(small.find("n10 "), std::string::npos);
  EXPECT_NE(small.find("n2 "), std::string::npos);
}

TEST(Dot, BalancedTreeShowsLateralEdges) {
  auto inst = make_balanced_instance(2);
  const std::string dot = io::to_dot(inst);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

}  // namespace
}  // namespace volcal
