// Must not compile: the site name is not in util::kFaultSites.
#include "util/fault.hpp"
bool probe() { return HPCFAIL_FAULT_SITE("ingest.read.no_such_site"); }
