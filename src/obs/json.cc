#include "src/obs/json.h"

#include <cctype>
#include <cstdlib>

namespace tableau::obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

// Not in an anonymous namespace: JsonValue befriends tableau::obs::JsonParser.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    JsonValue value;
    if (!ParseValue(value)) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return std::nullopt;  // Trailing garbage.
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) {
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default: return false;  // \uXXXX unsupported; our emitters never use it.
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // Unterminated.
  }

  bool ParseValue(JsonValue& value) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      value.type_ = JsonValue::Type::kObject;
      SkipSpace();
      if (Consume('}')) {
        return true;
      }
      while (true) {
        std::string key;
        SkipSpace();
        if (!ParseString(key) || !Consume(':')) {
          return false;
        }
        JsonValue member;
        if (!ParseValue(member)) {
          return false;
        }
        value.object_[key] = std::move(member);
        if (Consume(',')) {
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      value.type_ = JsonValue::Type::kArray;
      SkipSpace();
      if (Consume(']')) {
        return true;
      }
      while (true) {
        JsonValue element;
        if (!ParseValue(element)) {
          return false;
        }
        value.array_.push_back(std::move(element));
        if (Consume(',')) {
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      value.type_ = JsonValue::Type::kString;
      return ParseString(value.string_);
    }
    if (c == 't') {
      value.type_ = JsonValue::Type::kBool;
      return ConsumeLiteral("true");
    }
    if (c == 'f') {
      value.type_ = JsonValue::Type::kBool;
      return ConsumeLiteral("false");
    }
    if (c == 'n') {
      value.type_ = JsonValue::Type::kNull;
      return ConsumeLiteral("null");
    }
    // Number.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double number = std::strtod(start, &end);
    if (end == start) {
      return false;
    }
    value.type_ = JsonValue::Type::kNumber;
    value.number_ = number;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace tableau::obs
