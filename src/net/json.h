#ifndef NDSS_NET_JSON_H_
#define NDSS_NET_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ndss {
namespace net {

/// A parsed JSON document node. Hand-rolled (no third-party deps, like the
/// rest of the repo): the server's request bodies and the load-test
/// client's response parsing both go through this one type.
///
/// Objects preserve insertion order (a vector of pairs, not a map) so
/// serialization is deterministic and responses diff cleanly; numbers are
/// stored as double — every integer the protocol carries (token ids,
/// counters, byte totals) is below 2^53 and round-trips exactly.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = value;
    return v;
  }
  static JsonValue Number(double value) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = value;
    return v;
  }
  static JsonValue Number(uint64_t value) {
    return Number(static_cast<double>(value));
  }
  static JsonValue String(std::string value) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(value);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<Member>& members() const { return members_; }

  /// First member named `key`, or nullptr. Lookup is linear: protocol
  /// objects have a handful of fields.
  const JsonValue* Find(const std::string& key) const;

  /// Appends to an array value (must be kArray).
  void Append(JsonValue value) { array_.push_back(std::move(value)); }

  /// Appends a member to an object value (must be kObject). Keys are not
  /// deduplicated; Find returns the first.
  void Set(std::string key, JsonValue value) {
    members_.emplace_back(std::move(key), std::move(value));
  }

  /// Compact serialization (no whitespace), newline-free. Doubles print
  /// with enough digits to round-trip, and integral values below 2^53
  /// print without an exponent or trailing ".0" — so a value that went
  /// through Parse(Dump(v)) compares bit-identical, which the serve
  /// equivalence gates rely on.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> members_;
};

/// Writes compact JSON straight into a string, with no tree in between: the
/// bytes are exactly what JsonValue::Dump prints for the same document
/// (both format through one number printer and one string escaper), so a
/// hot reply can be written once while the tree API stays available.
///
///   std::string body;
///   JsonWriter w(&body);
///   w.BeginObject();
///   w.Key("code");
///   w.String("OK");
///   w.EndObject();  // body == {"code":"OK"}
///
/// Commas are placed automatically; the caller keeps the nesting balanced
/// and writes a Key before every value inside an object.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(std::string_view key);
  void String(std::string_view value);
  void Bool(bool value);
  /// Prints like JsonValue::Number(double): integral values below 2^53
  /// exactly, everything else as printf %.17g.
  void Number(double value);
  /// Prints like JsonValue::Number(uint64_t), which stores a double.
  void Number(uint64_t value) { Number(static_cast<double>(value)); }

 private:
  void Open(char bracket);
  void Close(char bracket);
  /// Emits the comma owed before a value or key, if any.
  void Separate();

  std::string* const out_;
  bool need_comma_ = false;
};

/// Strict recursive-descent parse of exactly one JSON document occupying
/// the whole of `text` (trailing garbage rejected). Numbers are validated
/// with the same strict parser the CLI flag layer uses (common/parse.h).
/// Nesting is limited to 64 levels; InvalidArgument on any malformation.
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace net
}  // namespace ndss

#endif  // NDSS_NET_JSON_H_
