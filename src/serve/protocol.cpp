#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace rahtm::serve {

namespace {

std::string memberName(const std::string& member) {
  return "request member '" + member + "'";
}

/// \p v as a T: a finite, integral number inside T's range, else a
/// ParseError naming \p name. Checked before the cast, which would be
/// undefined behaviour on an out-of-range value.
template <typename T>
T checkedInt(const obs::JsonValue& v, const std::string& name) {
  if (!v.isNumber()) {
    throw ParseError(memberName(name) + " must be a number");
  }
  // [lo, hi) in doubles: both bounds are exact powers of two (or zero).
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  const double x = v.number;
  if (!std::isfinite(x) || std::trunc(x) != x || x < lo || x >= hi) {
    throw ParseError(memberName(name) + " must be an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(x);
}

/// Member \p key of \p doc as a T (see checkedInt), or \p fallback when
/// absent; errors name it \p prefix + \p key.
template <typename T>
T intMember(const obs::JsonValue& doc, const std::string& key, T fallback,
            const std::string& prefix = "") {
  const obs::JsonValue* v = doc.find(key);
  return v == nullptr ? fallback : checkedInt<T>(*v, prefix + key);
}

bool boolMember(const obs::JsonValue& doc, const std::string& key,
                bool fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != obs::JsonValue::Kind::Bool) {
    throw ParseError("request member '" + key + "' must be a boolean");
  }
  return v->boolean;
}

}  // namespace

MapRequest parseMapRequest(const obs::JsonValue& doc) {
  if (!doc.isObject()) throw RequestError("", "request must be a JSON object");
  MapRequest req;
  req.id = doc.stringOr("id", "");
  // Every error below, the graph's own checks included, carries the id.
  try {
    const std::string schema = doc.stringOr("schema", "");
    if (schema != kServeRequestSchema) {
      throw ParseError("request schema must be '" +
                       std::string(kServeRequestSchema) + "', got '" +
                       schema + "'");
    }
    const std::string machine = doc.stringOr("machine", "");
    if (machine.empty()) throw ParseError("request missing 'machine'");
    req.machine = parseShapeSpec(machine, memberName("machine"));
    req.concentration = intMember(doc, "concentration", req.concentration);
    req.benchmark = doc.stringOr("benchmark", req.benchmark);
    req.messageBytes = intMember(doc, "bytes", req.messageBytes);
    req.mapper = doc.stringOr("mapper", req.mapper);
    req.beamWidth = intMember(doc, "beam", req.beamWidth);
    if (req.beamWidth < 1) {
      throw ParseError("request member 'beam' must be a positive int");
    }
    req.enableMerge = boolMember(doc, "merge", req.enableMerge);
    req.finalRefinement = boolMember(doc, "refine", req.finalRefinement);
    req.leafMilpVerts = intMember(doc, "leaf_milp", req.leafMilpVerts);
    req.threads = exec::checkedThreads(
        intMember<std::int64_t>(doc, "threads", req.threads),
        "request member 'threads'");
    req.seed = intMember(doc, "seed", req.seed);
    const std::string grid = doc.stringOr("grid", "");
    if (!grid.empty()) req.grid = parseShapeSpec(grid, memberName("grid"));
    checkMapRequest(req, memberName);

    if (const obs::JsonValue* g = doc.find("graph")) {
      if (!g->isObject()) {
        throw ParseError("request 'graph' must be an object");
      }
      const auto ranks = intMember<RankId>(*g, "ranks", 0, "graph.");
      if (ranks <= 0) throw ParseError("graph.ranks must be positive");
      req.graph = CommGraph(ranks);
      const obs::JsonValue* flows = g->find("flows");
      if (flows == nullptr || !flows->isArray()) {
        throw ParseError("graph.flows must be an array");
      }
      // A flow id outside [0, ranks) would grow the graph past its
      // declared rank count, so each is checked before addFlow.
      const auto rankId = [ranks](const obs::JsonValue& v,
                                  const std::string& member) {
        const auto id = checkedInt<RankId>(v, member);
        if (id < 0 || id >= ranks) {
          throw ParseError(memberName(member) + " must be in [0, " +
                           std::to_string(ranks) + "), got " +
                           std::to_string(id));
        }
        return id;
      };
      for (const obs::JsonValue& f : flows->array) {
        if (!f.isArray() || f.array.size() != 3 || !f.array[2].isNumber()) {
          throw ParseError("graph.flows entries must be [src,dst,bytes]");
        }
        const double bytes = f.array[2].number;
        if (!std::isfinite(bytes) || bytes < 0) {
          throw ParseError(
              "request member 'graph.flows bytes' must be a finite number "
              ">= 0");
        }
        const RankId src = rankId(f.array[0], "graph.flows src");
        const RankId dst = rankId(f.array[1], "graph.flows dst");
        req.graph.addFlow(src, dst, bytes);
      }
      req.hasGraph = true;
    }
  } catch (const std::exception& e) {
    throw RequestError(req.id, e.what());
  }
  return req;
}

MapRequest parseMapRequestLine(const std::string& line) {
  return parseMapRequest(obs::parseJson(line));
}

MapResponse parseFailureResponse(const std::exception& e) {
  MapResponse resp;
  resp.ok = false;
  resp.error = e.what();
  if (const auto* r = dynamic_cast<const RequestError*>(&e)) resp.id = r->id();
  return resp;
}

void writeMapResponseJson(std::ostream& os, const MapResponse& resp,
                          bool includeMapping) {
  using obs::jsonBool;
  using obs::jsonDouble;
  using obs::jsonInt;
  using obs::jsonString;
  os << "{\"schema\":" << jsonString(kServeResponseSchema)
     << ",\"id\":" << jsonString(resp.id) << ",\"ok\":" << jsonBool(resp.ok);
  if (!resp.ok) os << ",\"error\":" << jsonString(resp.error);
  os << ",\"benchmark\":" << jsonString(resp.benchmark)
     << ",\"mapper\":" << jsonString(resp.mapper)
     << ",\"machine\":" << jsonString(resp.machine)
     << ",\"ranks\":" << jsonInt(resp.ranks)
     << ",\"flows\":" << jsonInt(resp.flows)
     << ",\"mcl\":" << jsonDouble(resp.mcl)
     << ",\"hop_bytes\":" << jsonDouble(resp.hopBytes)
     << ",\"queue_sec\":" << jsonDouble(resp.queueSeconds)
     << ",\"solve_sec\":" << jsonDouble(resp.solveSeconds)
     << ",\"cache\":{\"route_hits\":" << jsonInt(resp.cache.routeHits)
     << ",\"route_misses\":" << jsonInt(resp.cache.routeMisses)
     << ",\"incidence_hits\":" << jsonInt(resp.cache.incidenceHits)
     << ",\"incidence_misses\":" << jsonInt(resp.cache.incidenceMisses)
     << ",\"evictions\":" << jsonInt(resp.cache.evictions)
     << ",\"bytes\":" << jsonInt(resp.cache.bytes) << "}";
  // The rahtm.bench.report/v1-style fragment: benchmark/mapper/metrics in
  // record key order, so ledger tooling can lift it directly.
  const obs::RunRecord rec = responseRecord(resp);
  os << ",\"ledger\":{\"benchmark\":" << jsonString(rec.benchmark)
     << ",\"mapper\":" << jsonString(rec.mapper) << ",\"metrics\":{";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    if (i != 0) os << ",";
    os << jsonString(rec.metrics[i].first) << ":"
       << jsonDouble(rec.metrics[i].second);
  }
  os << "}}";
  if (includeMapping && resp.ok) {
    os << ",\"mapping\":[";
    for (RankId r = 0; r < resp.mapping.numRanks(); ++r) {
      if (r != 0) os << ",";
      os << "[" << jsonInt(resp.mapping.nodeOf(r)) << ","
         << jsonInt(resp.mapping.slotOf(r)) << "]";
    }
    os << "]";
  }
  os << "}";
}

std::string mapResponseJson(const MapResponse& resp, bool includeMapping) {
  std::ostringstream os;
  writeMapResponseJson(os, resp, includeMapping);
  return os.str();
}

std::vector<std::string> validateServeResponseJson(
    const obs::JsonValue& doc) {
  std::vector<std::string> problems;
  const auto need = [&](const char* key, bool ok) {
    if (!ok) problems.push_back(std::string("missing or mistyped '") + key +
                                "'");
  };
  if (!doc.isObject()) {
    problems.push_back("response must be a JSON object");
    return problems;
  }
  if (doc.stringOr("schema", "") != kServeResponseSchema) {
    problems.push_back("schema must be '" +
                       std::string(kServeResponseSchema) + "'");
  }
  const obs::JsonValue* id = doc.find("id");
  need("id", id != nullptr && id->isString());
  const obs::JsonValue* ok = doc.find("ok");
  need("ok", ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool);
  for (const char* key : {"benchmark", "mapper", "machine"}) {
    const obs::JsonValue* v = doc.find(key);
    need(key, v != nullptr && v->isString());
  }
  for (const char* key :
       {"ranks", "flows", "mcl", "hop_bytes", "queue_sec", "solve_sec"}) {
    const obs::JsonValue* v = doc.find(key);
    need(key, v != nullptr && v->isNumber());
  }
  const obs::JsonValue* cache = doc.find("cache");
  if (cache == nullptr || !cache->isObject()) {
    problems.push_back("missing or mistyped 'cache'");
  } else {
    for (const char* key : {"route_hits", "route_misses", "incidence_hits",
                            "incidence_misses", "evictions", "bytes"}) {
      const obs::JsonValue* v = cache->find(key);
      need(key, v != nullptr && v->isNumber());
    }
  }
  const obs::JsonValue* ledger = doc.find("ledger");
  if (ledger == nullptr || !ledger->isObject()) {
    problems.push_back("missing or mistyped 'ledger'");
  } else {
    need("ledger.benchmark", ledger->find("benchmark") != nullptr &&
                                 ledger->find("benchmark")->isString());
    need("ledger.mapper", ledger->find("mapper") != nullptr &&
                              ledger->find("mapper")->isString());
    const obs::JsonValue* metrics = ledger->find("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
      problems.push_back("missing or mistyped 'ledger.metrics'");
    } else {
      for (const auto& [name, value] : metrics->object) {
        if (!value.isNumber() && !value.isString()) {
          problems.push_back("ledger metric '" + name +
                             "' must be a number");
        }
      }
    }
  }
  if (ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool &&
      ok->boolean) {
    const obs::JsonValue* mapping = doc.find("mapping");
    if (mapping != nullptr) {
      if (!mapping->isArray()) {
        problems.push_back("'mapping' must be an array");
      } else {
        const obs::JsonValue* ranks = doc.find("ranks");
        if (ranks != nullptr && ranks->isNumber() &&
            mapping->array.size() !=
                static_cast<std::size_t>(ranks->number)) {
          problems.push_back("'mapping' length != ranks");
        }
        for (const obs::JsonValue& e : mapping->array) {
          if (!e.isArray() || e.array.size() != 2 ||
              !e.array[0].isNumber() || !e.array[1].isNumber()) {
            problems.push_back("'mapping' entries must be [node,slot]");
            break;
          }
        }
      }
    }
  }
  return problems;
}

}  // namespace rahtm::serve
