#include "src/common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"

namespace philly {
namespace {

TEST(JsonTest, ParsesScalars) {
  std::string error;
  EXPECT_TRUE(JsonValue::Parse("null", &error).is_null());
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(JsonValue::Parse("true", &error).AsBool());
  EXPECT_FALSE(JsonValue::Parse("false", &error).AsBool(true));
  EXPECT_DOUBLE_EQ(JsonValue::Parse("42", &error).AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-3.5e2", &error).AsNumber(), -350.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"", &error).AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  const char* text = R"({
    "status": "Pass",
    "attempts": [
      {"start_time": "2017-10-03 19:59:14",
       "detail": [{"ip": "10.1.2.3", "gpus": ["gpu0", "gpu1"]}]},
      {"start_time": null, "detail": []}
    ],
    "count": 2
  })";
  std::string error;
  const JsonValue root = JsonValue::Parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(root["status"].AsString(), "Pass");
  EXPECT_DOUBLE_EQ(root["count"].AsNumber(), 2.0);
  const auto& attempts = root["attempts"].AsArray();
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0]["detail"].AsArray()[0]["ip"].AsString(), "10.1.2.3");
  EXPECT_EQ(attempts[0]["detail"].AsArray()[0]["gpus"].size(), 2u);
  EXPECT_TRUE(attempts[1]["start_time"].is_null());
  EXPECT_TRUE(root["missing"].is_null());
}

TEST(JsonTest, EscapesInStrings) {
  std::string error;
  const JsonValue v = JsonValue::Parse(R"("line\nbreak \"quoted\" back\\slash")",
                                       &error);
  ASSERT_TRUE(error.empty());
  EXPECT_EQ(v.AsString(), "line\nbreak \"quoted\" back\\slash");
}

TEST(JsonTest, DecodesUnicodeEscapesToUtf8) {
  std::string error;
  EXPECT_EQ(JsonValue::Parse(R"("a\u0001b")", &error).AsString(), "a\x01" "b");
  EXPECT_EQ(JsonValue::Parse(R"("\u00e9\u20AC")", &error).AsString(),
            "\xc3\xa9\xe2\x82\xac");
  // A surrogate pair is one code point (U+1F600).
  EXPECT_EQ(JsonValue::Parse(R"("\ud83d\ude00")", &error).AsString(),
            "\xf0\x9f\x98\x80");
  EXPECT_TRUE(error.empty()) << error;
}

TEST(JsonTest, EscapedStringsRoundTripEveryByte) {
  // JsonEscape writes control bytes as \u00xx; the parser reads them back.
  std::string text;
  for (int c = 0x01; c <= 0x7f; ++c) {
    text += static_cast<char>(c);
  }
  std::string error;
  EXPECT_EQ(JsonValue::Parse("\"" + JsonEscape(text) + "\"", &error).AsString(),
            text);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(JsonTest, RejectsMalformedUnicodeEscapesAtTheirOffset) {
  // The error points at the backslash of the bad escape.
  for (const char* text : {R"(["ok", "ab\u00zz"])", R"(["ok", "ab\u12"])",
                           R"(["ok", "ab\ud83d"])", R"(["ok", "ab\ude00x"])"}) {
    std::string error;
    JsonValue::Parse(text, &error);
    EXPECT_NE(error.find("escape at byte 10"), std::string::npos)
        << text << ": " << error;
  }
}

TEST(JsonTest, ListsTopLevelMembersWhereTheySit) {
  JsonValue::ParseError error;
  std::vector<JsonValue::Member> members;
  JsonValue::Parse(R"({"a":1, "b": [2,{"c":3}],"a":4})", &error, &members);
  ASSERT_TRUE(error.what.empty()) << error.what;
  ASSERT_EQ(members.size(), 4u);  // the duplicate too, then the end
  EXPECT_EQ(members[0].key, "a");
  EXPECT_EQ(members[0].begin, 0u);
  EXPECT_EQ(members[0].value, 5u);
  EXPECT_EQ(members[1].key, "b");
  EXPECT_EQ(members[1].begin, 6u);
  EXPECT_EQ(members[1].value, 13u);
  EXPECT_EQ(members[2].key, "a");
  EXPECT_EQ(members[2].begin, 24u);
  EXPECT_EQ(members[3].key, "");
  EXPECT_EQ(members[3].begin, 31u);
  members.clear();
  JsonValue::Parse(R"({"a":1,"b":"x)", &error, &members);
  EXPECT_EQ(error.what, "unterminated string");
  EXPECT_EQ(error.byte, 13u);
  ASSERT_EQ(members.size(), 2u);  // as far as it parsed
  EXPECT_EQ(members[1].key, "b");
}

TEST(JsonTest, ReadsNumbersWithinTheTextOnly) {
  std::string error;
  // A view that stops inside a longer buffer reads only its own digits.
  EXPECT_DOUBLE_EQ(JsonValue::Parse(std::string_view("123456", 3), &error).AsNumber(), 123.0);
  // Out of double's range: an infinity, or zero, as strtod gives them.
  EXPECT_EQ(JsonValue::Parse("[1e400, -1e400, 1e-400]", &error).AsArray()[1].AsNumber(),
            -HUGE_VAL);
  EXPECT_EQ(JsonValue::Parse("1e400", &error).AsNumber(), HUGE_VAL);
  EXPECT_EQ(JsonValue::Parse("1e-400", &error).AsNumber(), 0.0);
  EXPECT_TRUE(error.empty()) << error;
  // JSON has no leading '+' and no hex numbers.
  JsonValue::Parse("+1", &error);
  EXPECT_FALSE(error.empty());
  JsonValue::Parse("0x10", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ReportsErrors) {
  std::string error;
  JsonValue::Parse("{\"a\": }", &error);
  EXPECT_FALSE(error.empty());
  error.clear();
  JsonValue::Parse("[1, 2", &error);
  EXPECT_FALSE(error.empty());
  error.clear();
  JsonValue::Parse("\"unterminated", &error);
  EXPECT_FALSE(error.empty());
  error.clear();
  JsonValue::Parse("12 34", &error);  // trailing content
  EXPECT_FALSE(error.empty());
  error.clear();
  JsonValue::Parse("nope", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, EmptyContainers) {
  std::string error;
  EXPECT_EQ(JsonValue::Parse("[]", &error).AsArray().size(), 0u);
  EXPECT_TRUE(error.empty());
  const JsonValue obj = JsonValue::Parse("{}", &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(obj.size(), 0u);
}

TEST(JsonTest, TypeMismatchesReturnFallbacks) {
  std::string error;
  const JsonValue v = JsonValue::Parse("[1]", &error);
  EXPECT_DOUBLE_EQ(v.AsNumber(7.0), 7.0);
  EXPECT_EQ(v.AsString(), "");
  EXPECT_TRUE(v["key"].is_null());
  EXPECT_FALSE(v.AsBool());
}

}  // namespace
}  // namespace philly
