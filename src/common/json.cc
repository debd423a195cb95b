#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>

namespace philly {
namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
const JsonValue kNullValue;

}  // namespace

bool JsonValue::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::AsNumber(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

const std::string& JsonValue::AsString() const {
  return type_ == Type::kString ? string_ : kEmptyString;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  return type_ == Type::kArray ? array_ : kEmptyArray;
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  if (type_ == Type::kObject) {
    const auto it = object_.find(key);
    if (it != object_.end()) {
      return it->second;
    }
  }
  return kNullValue;
}

size_t JsonValue::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  if (type_ == Type::kObject) {
    return object_.size();
  }
  return 0;
}

class JsonParser {
 public:
  JsonParser(std::string_view text, std::vector<JsonValue::Member>* members)
      : text_(text), members_(members) {}

  JsonValue Parse(JsonValue::ParseError* error) {
    JsonValue value;
    root_ = &value;
    if (ParseValue(&value) &&
        (SkipSpace(), pos_ == text_.size() || Fail("trailing content"))) {
      return value;
    }
    *error = error_;
    return JsonValue();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Fail(const char* what) {
    if (error_.what.empty()) {
      error_ = {what, pos_};
    }
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        return ParseString(&out->string_) && ((out->type_ = JsonValue::Type::kString), true);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    std::vector<JsonValue::Member>* members = out == root_ ? members_ : nullptr;
    out->type_ = JsonValue::Type::kObject;
    size_t begin = pos_++;  // '{'
    SkipSpace();
    if (!Consume('}')) {
      for (;;) {
        SkipSpace();
        std::string key;
        if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
          return Fail("expected object key");
        }
        if (!Consume(':')) {
          return Fail("expected ':'");
        }
        SkipSpace();
        if (members != nullptr) {
          members->push_back({begin, pos_, key});
        }
        // Values parse in place; a duplicated key's later value is dropped.
        const auto [it, inserted] = out->object_.try_emplace(std::move(key));
        JsonValue duplicate;
        if (!ParseValue(inserted ? &it->second : &duplicate)) {
          return false;
        }
        if (Consume('}')) {
          break;
        }
        if (!Consume(',')) {
          return Fail("expected ',' or '}'");
        }
        begin = pos_ - 1;
      }
    }
    if (members != nullptr) {
      members->push_back({pos_, pos_, {}});
    }
    return true;
  }

  bool ParseArray(JsonValue* out) {
    out->type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      if (!ParseValue(&out->array_.emplace_back())) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u':
            if (!ParseUnicodeEscape(out)) {
              return false;
            }
            break;
          default:
            *out += esc;
            break;
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  // Decodes the \uXXXX escape whose "\u" was just consumed, two of them for
  // a UTF-16 surrogate pair, and appends the code point as UTF-8. A failure
  // points at the backslash.
  bool ParseUnicodeEscape(std::string* out) {
    const size_t escape = pos_ - 2;
    uint32_t code = 0;
    if (!ParseHex4(&code)) {
      pos_ = escape;
      return Fail("malformed \\u escape");
    }
    if (code >= 0xD800 && code < 0xE000) {
      uint32_t low = 0;
      if (code >= 0xDC00 || text_.substr(pos_, 2) != "\\u" ||
          (pos_ += 2, !ParseHex4(&low)) || low < 0xDC00 || low >= 0xE000) {
        pos_ = escape;
        return Fail("unpaired surrogate in \\u escape");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  // Exactly four hex digits.
  bool ParseHex4(uint32_t* code) {
    const char* begin = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(begin, begin + 4, *code, 16).ptr != begin + 4) {
      return false;
    }
    pos_ += 4;
    return true;
  }

  bool ParseLiteral(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      out->type_ = JsonValue::Type::kBool;
      out->bool_ = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->type_ = JsonValue::Type::kBool;
      out->bool_ = false;
      pos_ += 5;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNull(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      out->type_ = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return Fail("invalid literal");
  }

  // from_chars reads no further than the text and ignores the locale; a
  // number out of double's range still reads as strtod has it (an infinity,
  // or a denormal).
  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, text_.data() + text_.size(), out->number_);
    if (end == begin) {
      return Fail("invalid number");
    }
    if (ec == std::errc::result_out_of_range) {
      out->number_ = std::strtod(std::string(begin, end).c_str(), nullptr);
    }
    out->type_ = JsonValue::Type::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  std::string_view text_;
  std::vector<JsonValue::Member>* members_;  // the root object's, or null
  const JsonValue* root_ = nullptr;
  size_t pos_ = 0;
  JsonValue::ParseError error_;
};

JsonValue JsonValue::Parse(std::string_view text, std::string* error) {
  ParseError parse_error;
  JsonValue value = Parse(text, &parse_error);
  if (error != nullptr) {
    *error = parse_error.what.empty()
                 ? std::string()
                 : parse_error.what + " at byte " + std::to_string(parse_error.byte);
  }
  return value;
}

JsonValue JsonValue::Parse(std::string_view text, ParseError* error,
                           std::vector<Member>* members) {
  *error = {};
  return JsonParser(text, members).Parse(error);
}

}  // namespace philly
