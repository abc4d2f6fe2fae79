/**
 * @file
 * ASTRA-sim ET JSON (de)serialization (paper §IV-A).
 *
 * The on-disk schema ("astra-sim-et-v2") mirrors the in-memory
 * Workload: a document header plus one node array per NPU. Node
 * objects carry only the fields meaningful for their type. The
 * fields, defaults, integer ranges and the loader's memory contract
 * are documented in docs/workload.md.
 */
#ifndef ASTRA_WORKLOAD_ET_JSON_H_
#define ASTRA_WORKLOAD_ET_JSON_H_

#include <string>
#include <string_view>

#include "common/json.h"
#include "workload/et.h"

namespace astra {

/** Serialize a workload to the astra-sim-et-v2 JSON document. */
json::Value workloadToJson(const Workload &wl);

/**
 * Decode an astra-sim-et-v2 document from its text, field by field,
 * without building a json::Value tree. Keys may come in any order.
 * fatal() on syntax errors, schema violations and out-of-range
 * integers.
 */
Workload workloadFromJson(std::string_view text);

/** File helpers. loadWorkload streams the file through a
 *  json::Reader window and decodes it as workloadFromJson does. */
void saveWorkload(const std::string &path, const Workload &wl);
Workload loadWorkload(const std::string &path);

} // namespace astra

#endif // ASTRA_WORKLOAD_ET_JSON_H_
