// One NDJSON codec for the four stream line types: SchedEvent (event_log.cc), SpanRecord
// (span.cc), TelemetrySample (timeseries.cc) and TelemetryDigest (rollup.cc). Each is described
// once, as a constexpr tuple of fields in key order; the table is a template argument, so every
// row resolves at compile time. A field that is not written decodes to its member's default:
//
//   constexpr auto kFields = std::tuple{
//       Field{"t", &SchedEvent::time},
//       Field{.key = "ev", .member = &SchedEvent::kind, .tags = kKindNames},
//       Field{"ready", &SchedEvent::ready_time, When::kAlways, IsSchedule}};
//
// The reader parses a line with JsonValue, fills a record from the table, and accepts the line
// only if encoding that record gives back the line byte for byte: that rejects unknown,
// duplicated, reordered or missing keys, written defaults, whitespace and trailing bytes. Filling
// rejects type mismatches, non-finite numbers, fractional or out-of-range integers, unknown tags
// and fixed-size arrays of the wrong size. Errors read "byte B, key "K": why", bytes counted from
// 0. Integers pass through a double, so they are exact up to 2^53.

#ifndef SRC_OBS_NDJSON_CODEC_H_
#define SRC_OBS_NDJSON_CODEC_H_

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/json.h"
#include "src/common/strings.h"

namespace philly {

// When a field is written.
enum class When {
  kAlways,
  kNotNoJob,     // != kNoJob
  kNonNegative,  // >= 0
  kPositive,     // > 0
  kNonZero,      // != 0; a set flag, written as 1
  kNonEmpty,     // a non-empty string or vector
};

template <typename Record, typename Member>
struct Field {
  std::string_view key;
  Member Record::*member;
  When when = When::kAlways;
  bool (*only_if)(const Record&) = nullptr;     // also required of the record
  std::span<const std::string_view> tags = {};  // an enum's names, by value
};

// A key with a fixed value and no member: the digest's leading "digest":1.
struct Constant {
  std::string_view key;
  std::string_view value;
};

namespace ndjson_internal {

template <const auto& kFields>
constexpr size_t kNumFields = std::tuple_size_v<std::remove_cvref_t<decltype(kFields)>>;

// The ,"key": text of field I, built at compile time: one append per field.
template <const auto& kFields, size_t I>
constexpr auto kKeyText = [] {
  constexpr std::string_view key = std::get<I>(kFields).key;
  std::array<char, key.size() + 4> text{',', '"'};
  std::copy(key.begin(), key.end(), text.begin() + 2);
  text[key.size() + 2] = '"';
  text[key.size() + 3] = ':';
  return text;
}();

template <When kWhen, typename Member>
bool IsWritten(const Member& value) {
  if constexpr (kWhen == When::kNotNoJob) {
    return value != kNoJob;
  } else if constexpr (kWhen == When::kNonNegative) {
    return value >= 0;
  } else if constexpr (kWhen == When::kPositive) {
    return value > 0;
  } else if constexpr (kWhen == When::kNonZero) {
    return value != 0;
  } else if constexpr (kWhen == When::kNonEmpty) {
    return !value.empty();
  } else {
    return true;
  }
}

// Integers and set flags in decimal, doubles in shortest round-trip form,
// strings JSON-escaped, enums as their tags, arrays as arrays.
template <typename Member>
void AppendValue(std::string& out, const Member& value, std::span<const std::string_view> tags) {
  if constexpr (std::is_same_v<Member, bool>) {
    out += value ? '1' : '0';
  } else if constexpr (std::is_enum_v<Member>) {
    out.append("\"").append(tags[static_cast<size_t>(value)]).append("\"");
  } else if constexpr (std::is_arithmetic_v<Member>) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  } else if constexpr (std::is_same_v<Member, std::string>) {
    out += '"';
    AppendJsonEscaped(out, value);
    out += '"';
  } else {
    out += '[';
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      AppendValue(out, value[i], tags);
    }
    out += ']';
  }
}

// Writes field I as ,"key":value.
template <const auto& kFields, size_t I, typename Record>
void EncodeField(std::string& out, const Record& record) {
  constexpr const auto& field = std::get<I>(kFields);
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>, Constant>) {
    out.append(kKeyText<kFields, I>.data(), kKeyText<kFields, I>.size()).append(field.value);
  } else {
    if constexpr (field.only_if != nullptr) {
      if (!field.only_if(record)) {
        return;
      }
    }
    if (IsWritten<field.when>(record.*field.member)) {
      out.append(kKeyText<kFields, I>.data(), kKeyText<kFields, I>.size());
      AppendValue(out, record.*field.member, field.tags);
    }
  }
}

// Fills *out from `json`. Returns why it cannot, or empty on success.
template <typename Member>
std::string DecodeValue(const JsonValue& json, std::span<const std::string_view> tags,
                        Member* out) {
  if constexpr (std::is_enum_v<Member>) {
    const auto it = std::find(tags.begin(), tags.end(), json.AsString());
    if (json.type() != JsonValue::Type::kString || it == tags.end()) {
      return "unknown tag";
    }
    *out = static_cast<Member>(it - tags.begin());
  } else if constexpr (std::is_same_v<Member, std::string>) {
    if (json.type() != JsonValue::Type::kString) {
      return "expected a string";
    }
    *out = json.AsString();
  } else if constexpr (std::is_arithmetic_v<Member>) {
    if (json.type() != JsonValue::Type::kNumber) {
      return "expected a number";
    }
    const double number = json.AsNumber();
    // [0, 2) for a flag, [-2^d, 2^d) for a d-bit signed integer: exact bounds.
    using Limits = std::numeric_limits<Member>;
    constexpr double kHigh = std::is_same_v<Member, bool> ? 2.0
                             : std::is_integral_v<Member> ? -double{Limits::min()}
                                                          : HUGE_VAL;
    constexpr double kLow = std::is_same_v<Member, bool> ? 0.0 : -kHigh;
    if (!std::isfinite(number)) {
      return "expected a finite number";
    }
    if (std::is_integral_v<Member> && number != std::trunc(number)) {
      return "expected an integer";
    }
    if (number < kLow || number >= kHigh) {
      return "integer out of range";
    }
    *out = static_cast<Member>(number);
  } else {
    if (json.type() != JsonValue::Type::kArray) {
      return "expected an array";
    }
    const std::vector<JsonValue>& items = json.AsArray();
    if constexpr (requires { out->resize(0); }) {
      out->resize(items.size());
    } else if (items.size() != out->size()) {
      return "expected " + std::to_string(out->size()) + " entries";
    }
    for (size_t i = 0; i < items.size(); ++i) {
      if (std::string why = DecodeValue(items[i], tags, &(*out)[i]); !why.empty()) {
        return "entry " + std::to_string(i) + ": " + why;
      }
    }
  }
  return {};
}

// Error texts "byte B, key "K": what", where K's `,"K":value` span holds byte B: at a given
// byte, at the start of `key`'s value, or at the first byte where `line` differs from `canonical`.
std::string ErrorAt(std::string_view line, size_t byte, std::string_view what);
std::string ErrorAtValue(std::string_view line, std::string_view key, std::string_view what);
std::string NotCanonicalError(std::string_view line, std::string_view canonical);

// Fills field I of *out from `object`; on failure sets *error.
template <const auto& kFields, size_t I, typename Record>
bool DecodeField(std::string_view line, const JsonValue& object, Record* out, std::string* error) {
  constexpr const auto& field = std::get<I>(kFields);
  if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>, Constant>) {
    return true;
  } else {
    // An absent key keeps the default (so does a null; the canonical check rejects it).
    const JsonValue& value = object[field.key];
    const std::string why =
        value.is_null() ? "" : DecodeValue(value, field.tags, &(out->*field.member));
    if (!why.empty()) {
      *error = ErrorAtValue(line, field.key, why);
    }
    return why.empty();
  }
}

}  // namespace ndjson_internal

// Appends the record's line, without the newline. The first field of every
// table is always written; its comma becomes the opening brace.
template <const auto& kFields, typename Record>
void AppendNdjson(std::string& out, const Record& record) {
  const size_t start = out.size();
  [&]<size_t... I>(std::index_sequence<I...>) {
    (ndjson_internal::EncodeField<kFields, I>(out, record), ...);
  }(std::make_index_sequence<ndjson_internal::kNumFields<kFields>>());
  out[start] = '{';
  out += '}';
}

template <const auto& kFields, typename Record>
std::string EncodeNdjson(const Record& record) {
  std::string out;
  out.reserve(128);
  AppendNdjson<kFields>(out, record);
  return out;
}

// Decodes a canonical line into *record; on failure leaves it and sets *error (when non-null).
template <const auto& kFields, typename Record>
bool DecodeNdjson(std::string_view line, Record* record, std::string* error) {
  // The re-encoding, kept so that reading a stream reuses one buffer.
  thread_local std::string canonical;
  JsonValue::ParseError parse_error;
  const JsonValue object = JsonValue::Parse(line, &parse_error);
  std::string message;
  Record decoded;
  if (!parse_error.what.empty()) {
    message = ndjson_internal::ErrorAt(line, parse_error.byte, parse_error.what);
  } else if (object.type() != JsonValue::Type::kObject) {
    message = ndjson_internal::ErrorAt(line, 0, "expected a JSON object");
  } else if ([&]<size_t... I>(std::index_sequence<I...>) {
               return (ndjson_internal::DecodeField<kFields, I>(line, object, &decoded, &message) &&
                       ...);
             }(std::make_index_sequence<ndjson_internal::kNumFields<kFields>>())) {
    canonical.clear();
    AppendNdjson<kFields>(canonical, decoded);
    if (canonical == line) {
      *record = std::move(decoded);
      return true;
    }
    message = ndjson_internal::NotCanonicalError(line, canonical);
  }
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

// Calls decode(line, &why) on each line until one fails; then *error (when
// non-null) is "line N, <why>", for an empty line "line N, byte 0: empty line".
template <typename Decode>
void ReadNdjsonLines(std::istream& in, std::string* error, Decode&& decode) {
  if (error != nullptr) {
    error->clear();
  }
  std::string line;
  std::string why;
  for (int64_t number = 1; std::getline(in, line); ++number) {
    if (line.empty()) {
      why = "byte 0: empty line";
    } else if (decode(std::string_view(line), &why)) {
      continue;
    }
    if (error != nullptr) {
      *error = "line " + std::to_string(number) + ", " + why;
    }
    return;
  }
}

// The records of a stream of one line type, up to the first bad line.
template <typename Record, const auto& kFields>
std::vector<Record> ReadNdjsonRecords(std::istream& in, std::string* error) {
  std::vector<Record> records;
  ReadNdjsonLines(in, error, [&](std::string_view line, std::string* why) {
    if (DecodeNdjson<kFields>(line, &records.emplace_back(), why)) {
      return true;
    }
    records.pop_back();
    return false;
  });
  return records;
}

}  // namespace philly

#endif  // SRC_OBS_NDJSON_CODEC_H_
