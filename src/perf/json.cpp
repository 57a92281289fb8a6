#include "perf/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace volcal::perf {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::as_bool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const {
  return kind_ == Kind::Number ? number_ : fallback;
}

std::int64_t JsonValue::as_int(std::int64_t fallback) const {
  return kind_ == Kind::Number ? static_cast<std::int64_t>(number_) : fallback;
}

const std::string& JsonValue::as_string() const {
  static const std::string empty;
  return kind_ == Kind::String ? string_ : empty;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_at(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->as_number(fallback) : fallback;
}

std::int64_t JsonValue::int_at(const std::string& key, std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->as_int(fallback) : fallback;
}

std::string JsonValue::string_at(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

void JsonValue::set(std::string key, JsonValue v) {
  kind_ = Kind::Object;
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* err) : text_(text), err_(err) {}

  JsonValue run() {
    JsonValue v = value();
    if (!failed_) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after document");
    }
    return failed_ ? JsonValue() : v;
  }

 private:
  void fail(const char* why) {
    if (!failed_ && err_ != nullptr) {
      *err_ = "byte offset " + std::to_string(pos_) + ": " + why;
    }
    failed_ = true;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return JsonValue::make_string(string());
    if (c == 't') {
      if (!literal("true")) fail("bad literal");
      return JsonValue::make_bool(true);
    }
    if (c == 'f') {
      if (!literal("false")) fail("bad literal");
      return JsonValue::make_bool(false);
    }
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      return JsonValue::make_null();
    }
    return number();
  }

  JsonValue number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) {
      fail("expected a value");
      return {};
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return JsonValue::make_number(d);
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad \\u escape");
              return out;
            }
          }
          // Encode the code point as UTF-8 (BMP only — the exporters never
          // write surrogate pairs; the escapes they emit are control chars).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("unknown escape");
          return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue array() {
    ++pos_;  // '['
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (consume(']')) return arr;
    while (!failed_) {
      arr.push_back(value());
      if (consume(']')) return arr;
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return arr;
      }
    }
    return arr;
  }

  JsonValue object() {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (consume('}')) return obj;
    while (!failed_) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return obj;
      }
      std::string key = string();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return obj;
      }
      obj.set(std::move(key), value());
      if (consume('}')) return obj;
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return obj;
      }
    }
    return obj;
  }

  const std::string& text_;
  std::string* err_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

JsonValue parse_json(const std::string& text, std::string* err) {
  return Parser(text, err).run();
}

JsonValue parse_json_file(const std::string& path, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = path + ": cannot open";
    return {};
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::string inner;
  JsonValue v = parse_json(text, &inner);
  if (v.is_null() && !inner.empty() && err != nullptr) *err = path + ": " + inner;
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace volcal::perf
