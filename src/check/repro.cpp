#include "check/repro.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

namespace volcal::check {
namespace {

constexpr const char* kHeader = "volcal-fuzz-repro v1";

bool set_why(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

}  // namespace

std::string to_repro(const FuzzCase& c, const std::string& error) {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "family " << c.family << "\n";
  os << "variant " << c.variant << "\n";
  os << "n_target " << c.n_target << "\n";
  os << "instance_seed " << c.instance_seed << "\n";
  os << "model " << model_name(c.model) << "\n";
  os << "budget " << c.budget << "\n";
  os << "start_count " << c.start_count << "\n";
  os << "tape_seed " << c.tape_seed << "\n";
  os << "mutation_seed " << c.mutation_seed << "\n";
  os << "mutation_rewires " << c.mutation_rewires << "\n";
  os << "mutation_labels " << c.mutation_labels << "\n";
  if (!error.empty()) {
    // The error is one line by construction (check_all emits single-line
    // messages); flatten defensively so the file stays parseable.
    std::string flat = error;
    for (char& ch : flat) {
      if (ch == '\n' || ch == '\r') ch = ' ';
    }
    os << "error " << flat << "\n";
  }
  return os.str();
}

bool parse_repro(const std::string& text, FuzzCase* out, std::string* error_out,
                 std::string* why) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    return set_why(why, "missing 'volcal-fuzz-repro v1' header");
  }
  FuzzCase c;
  bool have_family = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) return set_why(why, "malformed line: " + line);
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    try {
      if (key == "family") {
        c.family = value;
        have_family = !value.empty();
      } else if (key == "variant") {
        c.variant = std::stoi(value);
      } else if (key == "n_target") {
        c.n_target = static_cast<NodeIndex>(std::stoll(value));
      } else if (key == "instance_seed") {
        c.instance_seed = std::stoull(value);
      } else if (key == "model") {
        if (!model_from_name(value, &c.model)) {
          return set_why(why, "unknown randomness model: " + value);
        }
      } else if (key == "budget") {
        c.budget = std::stoll(value);
      } else if (key == "start_count") {
        c.start_count = static_cast<NodeIndex>(std::stoll(value));
      } else if (key == "tape_seed") {
        c.tape_seed = std::stoull(value);
      } else if (key == "mutation_seed") {
        c.mutation_seed = std::stoull(value);
      } else if (key == "mutation_rewires") {
        c.mutation_rewires = std::stoi(value);
      } else if (key == "mutation_labels") {
        c.mutation_labels = std::stoi(value);
      } else if (key == "error") {
        if (error_out != nullptr) *error_out = value;
      }  // unknown keys: forward compatibility
    } catch (const std::exception&) {
      return set_why(why, "bad number in line: " + line);
    }
  }
  if (!have_family) return set_why(why, "missing family");
  *out = c;
  return true;
}

bool write_repro_file(const std::string& path, const FuzzCase& c, const std::string& error) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_repro(c, error);
  return static_cast<bool>(f);
}

bool load_repro_file(const std::string& path, FuzzCase* out, std::string* error_out,
                     std::string* why) {
  std::ifstream f(path);
  if (!f) return set_why(why, "cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return parse_repro(buffer.str(), out, error_out, why);
}

}  // namespace volcal::check
