// Minimal JSON document model + recursive-descent parser for the perf
// telemetry subsystem, and the string escaper every writer shares.  The
// repo's exporters write JSON with snprintf; this is the matching *reader* —
// volcal_bench_diff and the tests need to load artifacts back, and pulling
// in a third-party JSON library is not an option (the container has none).
//
// Scope is deliberately small: full JSON syntax on input (objects, arrays,
// strings with escapes, numbers, booleans, null), numbers held as double
// (artifact costs are int64 counts well inside the 2^53 exact range — the
// schema never emits larger integers), object keys kept in insertion order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace volcal::perf {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }

  // Typed accessors; defaults returned on kind mismatch (callers validate
  // presence via has()/find() where it matters).
  bool as_bool(bool fallback = false) const;
  double as_number(double fallback = 0.0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  const std::string& as_string() const;  // empty string on mismatch

  const std::vector<JsonValue>& items() const { return items_; }
  std::vector<JsonValue>& items() { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return members_; }

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  // Convenience: find(key) and coerce, with fallback.
  double number_at(const std::string& key, double fallback = 0.0) const;
  std::int64_t int_at(const std::string& key, std::int64_t fallback = 0) const;
  std::string string_at(const std::string& key, const std::string& fallback = "") const;

  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  void set(std::string key, JsonValue v);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                              // Array
  std::vector<std::pair<std::string, JsonValue>> members_;    // Object
};

// Parses one JSON document.  On failure returns a Null value and, when `err`
// is non-null, a "byte offset N: reason" message.
JsonValue parse_json(const std::string& text, std::string* err = nullptr);

// Loads and parses a file; error strings are prefixed with the path.
JsonValue parse_json_file(const std::string& path, std::string* err = nullptr);

// The one JSON string escaper every writer uses (perf artifacts, sweep
// metrics, traces, the metrics registry): quote, backslash, \n and \t get
// their short escapes, other control bytes \u00XX; UTF-8 (Θ, …) passes
// through untouched.
std::string json_escape(const std::string& s);

}  // namespace volcal::perf
