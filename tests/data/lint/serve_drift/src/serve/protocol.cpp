// Drifted serve verb table: a typo'd status verb, a ping summary that
// disagrees with the doc, and the lead_time verb the documentation
// promises is missing entirely.
namespace hpcfail::serve {
namespace {
constexpr VerbDef kVerbs[] = {
    {Verb::Ping, "ping", "liveness probe, answers pong"},
    {Verb::Status, "statuss", "store, window and epoch counters for the daemon"},
};
}  // namespace
}  // namespace hpcfail::serve
