// Minimal JSON parser — just enough to read the public philly-traces
// cluster_job_log and the NDJSON streams (objects, arrays, strings, numbers,
// booleans, null). Not a general-purpose JSON library: numbers are parsed as
// double, a duplicated object key keeps its first value, input must fit in
// memory. \uXXXX escapes (surrogate pairs included) decode to UTF-8.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace philly {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // Typed accessors; return the fallback when the type does not match.
  bool AsBool(bool fallback = false) const;
  double AsNumber(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string when not a string
  const std::vector<JsonValue>& AsArray() const;    // empty when not an array
  // Object member lookup; returns a null value when absent or not an object.
  const JsonValue& operator[](std::string_view key) const;
  size_t size() const;

  // Parses a complete JSON document. Returns a null value and sets *error on
  // malformed input (error stays empty on success).
  static JsonValue Parse(std::string_view text, std::string* error = nullptr);

  // Why and where a parse failed: Parse's message is "<what> at byte <byte>".
  struct ParseError {
    std::string what;  // empty on success
    size_t byte = 0;   // offset of the failure in the text
  };
  // A member of the top-level object as it sits in the text: from the ',' or
  // '{' before its key, with its value from `value`.
  struct Member {
    size_t begin = 0;
    size_t value = 0;
    std::string key;
  };
  // Parse, with the failure in parts. With `members`, also lists the
  // top-level object's members in text order (duplicates too, up to a
  // failure), then one with no key just past the closing brace.
  static JsonValue Parse(std::string_view text, ParseError* error,
                         std::vector<Member>* members = nullptr);

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue, std::less<>> object_;
};

}  // namespace philly

#endif  // SRC_COMMON_JSON_H_
