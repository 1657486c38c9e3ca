#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/parse.h"

namespace ndss {
namespace net {

namespace {

constexpr int kMaxDepth = 64;

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double value, std::string* out) {
  // Integers up to 2^53 (token ids, counters, byte totals) print exactly,
  // without scientific notation, as %lld would; everything else
  // round-trips in std::to_chars' general format at precision 17, which
  // the standard defines as printf's %.17g.
  char buf[40];
  std::to_chars_result printed;
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    printed = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(value));
  } else {
    printed = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
  }
  out->append(buf, printed.ptr);
}

/// In-place cursor over the document being parsed.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    NDSS_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        NDSS_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      NDSS_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      NDSS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      NDSS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t code = 0;
          NDSS_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require the low half immediately after.
            if (!ConsumeLiteral("\\u")) return Fail("unpaired surrogate");
            uint32_t low = 0;
            NDSS_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0;
    // The same strict parser the flag layer uses: full consumption of the
    // scanned token, finite values only.
    if (pos_ == begin ||
        !ParseDouble(text_.substr(begin, pos_ - begin), &value)) {
      return Fail("malformed number");
    }
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
}

void JsonWriter::Open(char bracket) {
  Separate();
  out_->push_back(bracket);
  need_comma_ = false;
}

void JsonWriter::Close(char bracket) {
  out_->push_back(bracket);
  need_comma_ = true;
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  AppendEscaped(key, out_);
  out_->push_back(':');
  need_comma_ = false;
}

void JsonWriter::String(std::string_view value) {
  Separate();
  AppendEscaped(value, out_);
  need_comma_ = true;
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_->append(value ? "true" : "false");
  need_comma_ = true;
}

void JsonWriter::Number(double value) {
  Separate();
  AppendNumber(value, out_);
  need_comma_ = true;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      break;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      AppendNumber(number_, out);
      break;
    case Kind::kString:
      AppendEscaped(string_, out);
      break;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendEscaped(members_[i].first, out);
        out->push_back(':');
        members_[i].second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace net
}  // namespace ndss
