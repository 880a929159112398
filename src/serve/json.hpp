// Forwarding header for perfbench/src/workloads.cpp; nothing else includes
// it.  Delete it with the next change to the benchmark.
#pragma once

#include "util/json.hpp"

namespace hpcfail::serve {
using util::append_json_number;
using util::append_json_string;
using util::JsonValue;
}  // namespace hpcfail::serve
