// Fixture: fault-site uses that drift from the inventory and naming rules.
#include "util/fault.hpp"

bool stage() {
  if (HPCFAIL_FAULT_SITE("ingest.read.badbit")) return false;
  if (HPCFAIL_FAULT_SITE("ingest.read.badbit")) return false;
  if (HPCFAIL_FAULT_SITE("ingest.Read.torn")) return false;
  if (HPCFAIL_FAULT_SITE("parse.oops")) return false;
  if (HPCFAIL_FAULT_SITE("ingest.retire.bad_alloc")) return false;
  if (HPCFAIL_FAULT_SITE("legacy.shim")) return false;  // hpcfail-lint: allow(fault-sites) -- migration shim, removed with the v0 reader
  // Without a reason the allow suppresses nothing:
  if (HPCFAIL_FAULT_SITE("legacy.probe.shim")) return false;  // hpcfail-lint: allow(fault-sites)
  return true;
}
