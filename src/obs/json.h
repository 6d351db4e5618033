// Minimal JSON document model + recursive-descent parser, used by the
// observability layer to schema-check the Perfetto traces it emits
// (ValidatePerfettoJson).
// Not a general-purpose JSON library — no streaming, no \uXXXX surrogate
// pairs — but strict enough to reject malformed output.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace tableau::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  double number() const { return number_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses `text` as one JSON document (trailing whitespace allowed, trailing
// garbage rejected). Returns nullopt on any syntax error.
std::optional<JsonValue> ParseJson(const std::string& text);

// Escapes a string for embedding in a JSON document (quotes not included).
std::string JsonEscape(const std::string& text);

}  // namespace tableau::obs

#endif  // SRC_OBS_JSON_H_
