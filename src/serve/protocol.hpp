#pragma once
/// \file protocol.hpp
/// The daemon's newline-delimited JSON wire protocol.
///
/// One request per line, one response line per request, in both the Unix
/// socket and the stdin batch transports. Requests carry the schema
/// `rahtm.serve.request/v1`; responses `rahtm.serve.response/v1` and embed
/// a `rahtm.bench.report/v1`-style ledger fragment (a single
/// benchmark/mapper/metrics record) so response streams can be gated with
/// the same tooling as suite ledgers. Parsing reuses obs/json_reader;
/// encoding reuses obs/json. Responses are written with a fixed key order
/// so they diff cleanly.

#include <exception>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/service.hpp"

namespace rahtm::obs {
struct JsonValue;
}

namespace rahtm::serve {

inline constexpr const char* kServeRequestSchema = "rahtm.serve.request/v1";
inline constexpr const char* kServeResponseSchema = "rahtm.serve.response/v1";

/// A request that failed to parse or validate, with the `id` it carried
/// (empty when the line was not a JSON object with a string `id`).
class RequestError : public ParseError {
 public:
  RequestError(std::string id, const std::string& what)
      : ParseError(what), id_(std::move(id)) {}
  const std::string& id() const { return id_; }

 private:
  std::string id_;
};

/// Parse one request line / document. Unknown keys are ignored; a missing
/// or wrong schema, a missing machine, or malformed members throw a
/// RequestError. The `id` is read before any other member is checked, so
/// every error carries it.
///
/// Document shape (optional members carry the MapRequest defaults):
///   {"schema":"rahtm.serve.request/v1","id":"r1","machine":"4x4x4x2",
///    "concentration":2,"benchmark":"CG","bytes":4096,"mapper":"rahtm",
///    "beam":64,"merge":true,"refine":true,"leaf_milp":8,"threads":1,
///    "seed":24301,"grid":"8x16",
///    "graph":{"ranks":8,"flows":[[0,1,4096],[1,2,4096]]}}
MapRequest parseMapRequest(const obs::JsonValue& doc);
MapRequest parseMapRequestLine(const std::string& line);

/// The reply to a request line that threw \p e while parsing: ok == false,
/// the error as the message and, when \p e is a RequestError, its id.
MapResponse parseFailureResponse(const std::exception& e);

/// Serialize a response as one JSON line (no trailing newline). When
/// \p includeMapping is false the per-rank mapping array is omitted (bench
/// clients that only read the metrics skip the bulk).
void writeMapResponseJson(std::ostream& os, const MapResponse& resp,
                          bool includeMapping = true);
std::string mapResponseJson(const MapResponse& resp,
                            bool includeMapping = true);

/// Schema validation of a parsed response document (mirrors
/// obs::validateReportJson): every problem found, empty == valid.
std::vector<std::string> validateServeResponseJson(const obs::JsonValue& doc);

}  // namespace rahtm::serve
