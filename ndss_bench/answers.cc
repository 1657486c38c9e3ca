#include "answers.h"

#include "net/serve.h"

namespace ndss_bench {

using ndss::net::JsonValue;

namespace {

void AppendTokens(std::span<const ndss::Token> tokens, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(tokens[i]);
  }
  out->push_back(']');
}

/// Dump of `object[field]` keeping the entries whose "text" is below
/// `text_limit`.
std::string Restricted(const JsonValue& object, const char* field,
                       ndss::TextId text_limit) {
  const JsonValue* array = object.Find(field);
  if (array == nullptr || !array->is_array()) return "-";
  JsonValue kept = JsonValue::Array();
  for (const JsonValue& entry : array->array()) {
    const JsonValue* text = entry.Find("text");
    if (text != nullptr && text->is_number() && text->number() < text_limit) {
      kept.Append(entry);
    }
  }
  return kept.Dump();
}

}  // namespace

std::string SearchBody(std::span<const ndss::Token> tokens) {
  std::string body = "{\"tokens\":";
  AppendTokens(tokens, &body);
  body.push_back('}');
  return body;
}

std::string ListBody(const char* field,
                     const std::vector<std::span<const ndss::Token>>& lists) {
  std::string body = std::string("{\"") + field + "\":[";
  for (size_t i = 0; i < lists.size(); ++i) {
    if (i > 0) body.push_back(',');
    AppendTokens(lists[i], &body);
  }
  body += "]}";
  return body;
}

std::string AnswerKey(const JsonValue& object, ndss::TextId text_limit) {
  return Restricted(object, "spans", text_limit) + "|" +
         Restricted(object, "rectangles", text_limit);
}

std::string AnswerKey(const ndss::SearchResult& result,
                      ndss::TextId text_limit) {
  JsonValue object = JsonValue::Object();
  ndss::net::SearchResultToJson(result, &object);
  return AnswerKey(object, text_limit);
}

double Stat(const JsonValue& object, const char* name) {
  const JsonValue* stats = object.Find("stats");
  const JsonValue* value = stats == nullptr ? nullptr : stats->Find(name);
  return value != nullptr && value->is_number() ? value->number() : 0;
}

}  // namespace ndss_bench
