#include "src/obs/ndjson_codec.h"

namespace philly::ndjson_internal {
namespace {

// The line's top-level members, as far as it parses.
std::vector<JsonValue::Member> MembersOf(std::string_view line) {
  JsonValue::ParseError ignored;
  std::vector<JsonValue::Member> members;
  JsonValue::Parse(line, &ignored, &members);
  return members;
}

}  // namespace

std::string ErrorAt(std::string_view line, size_t byte, std::string_view what) {
  std::string key;
  for (const JsonValue::Member& member : MembersOf(line)) {
    if (member.begin <= byte) {
      key = member.key;
    }
  }
  return "byte " + std::to_string(byte) + (key.empty() ? "" : ", key \"" + key + '"') + ": " +
         std::string(what);
}

std::string ErrorAtValue(std::string_view line, std::string_view key, std::string_view what) {
  for (const JsonValue::Member& member : MembersOf(line)) {
    if (member.key == key) {
      return ErrorAt(line, member.value, what);
    }
  }
  return ErrorAt(line, 0, what);
}

std::string NotCanonicalError(std::string_view line, std::string_view canonical) {
  const auto at = std::mismatch(line.begin(), line.end(), canonical.begin(), canonical.end());
  const size_t byte = static_cast<size_t>(at.first - line.begin());
  const auto excerpt = [byte](std::string_view text) {
    std::string part(text.substr(std::min(byte, text.size()), 24));
    std::replace_if(part.begin(), part.end(), [](unsigned char c) { return c < 0x20; }, '?');
    return part.empty() ? std::string("the end of the line") : '"' + part + '"';
  };
  return ErrorAt(line, byte,
                 "not the canonical encoding: expected " + excerpt(canonical) + ", found " +
                     excerpt(line));
}

}  // namespace philly::ndjson_internal
