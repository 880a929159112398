// Minimal consistent serve verb table for the clean fixture tree.
namespace hpcfail::serve {
namespace {
constexpr VerbDef kVerbs[] = {
    {Verb::Ping, "ping", "liveness probe, answers pong"},
    {Verb::Status, "status", "store, window and epoch counters for the daemon"},
};
}  // namespace
}  // namespace hpcfail::serve
