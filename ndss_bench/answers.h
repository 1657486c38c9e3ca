// Request bodies and canonical answers. Served and in-process answers are
// compared as canonical spans + rectangles through SearchResultToJson, so
// only the stats block (wall time) may differ between the two.

#ifndef NDSS_BENCH_ANSWERS_H_
#define NDSS_BENCH_ANSWERS_H_

#include <span>
#include <string>
#include <vector>

#include "net/json.h"
#include "query/searcher.h"
#include "text/types.h"

namespace ndss_bench {

/// {"tokens":[...]} for /v1/search.
std::string SearchBody(std::span<const ndss::Token> tokens);

/// {"<field>":[[...],...]} for /v1/search_batch ("queries") and /v1/ingest
/// ("documents").
std::string ListBody(const char* field,
                     const std::vector<std::span<const ndss::Token>>& lists);

/// Canonical answer of a response object (or one search_batch result):
/// its spans and rectangles, keeping texts below `text_limit` only.
std::string AnswerKey(const ndss::net::JsonValue& object,
                      ndss::TextId text_limit = ~ndss::TextId{0});

/// The same canonical form of an in-process answer.
std::string AnswerKey(const ndss::SearchResult& result,
                      ndss::TextId text_limit = ~ndss::TextId{0});

/// Number field `name` of `object`'s "stats" block (0 when absent).
double Stat(const ndss::net::JsonValue& object, const char* name);

}  // namespace ndss_bench

#endif  // NDSS_BENCH_ANSWERS_H_
