#include "loggen/renderer.hpp"

#include "loggen/nid_ranges.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;

LogRenderer::LogRenderer(const platform::Topology& topo, platform::SchedulerKind scheduler,
                         const logmodel::SymbolTable& symbols)
    : topo_(topo), scheduler_(scheduler), symbols_(symbols) {}

void internal_payload(std::string& out, const LogRecord& r,
                      const logmodel::SymbolTable& symbols) {
  // Every template is prefix + detail + suffix, except the detail-free oops.
  std::string_view prefix;
  std::string_view suffix;
  switch (r.type) {
    case EventType::KernelPanic:
      prefix = "Kernel panic - not syncing: ";
      break;
    case EventType::KernelOops:
      out += "BUG: unable to handle kernel paging request at 00000000deadbeef";
      return;
    case EventType::CallTrace:
      prefix = " [<ffffffff81234567>] ";
      suffix = "+0x1a2/0x400";
      break;
    case EventType::MachineCheckException:
      prefix = "mce: [Hardware Error]: Machine check events logged: ";
      break;
    case EventType::HardwareError:
      prefix = "EDAC MC0: ";
      break;
    case EventType::CpuCorruption:
      prefix = "mce: [Hardware Error]: PCC processor context corrupt: ";
      break;
    case EventType::CpuStall:
      prefix = "INFO: rcu_sched self-detected stall on CPU: ";
      break;
    case EventType::BiosError:
      prefix = "HEST: ";
      break;
    case EventType::FirmwareBug:
      prefix = "[Firmware Bug]: ";
      break;
    case EventType::DriverBug:
      prefix = "WARNING: driver bug: ";
      break;
    case EventType::SegFault:
      prefix = "app[31337]: segfault at 0 ip 00007f err 4: ";
      break;
    case EventType::InvalidOpcode:
      prefix = "invalid opcode: 0000 [#1] SMP: ";
      break;
    case EventType::PageAllocationFailure:
      suffix = ", mode:0x4020";
      break;
    case EventType::OomKill:
      suffix = " score 987 or sacrifice child";
      break;
    case EventType::HungTaskTimeout:
      prefix = "INFO: task blocked for more than 120 seconds: ";
      break;
    case EventType::LustreBug:
      prefix = "LustreError: LBUG - ASSERTION failed: ";
      break;
    case EventType::LustreError:
      prefix = "LustreError: 11-0: ";
      break;
    case EventType::DvsError:
      prefix = "DVS: ";
      break;
    case EventType::InodeError:
      prefix = "LDISKFS-fs error: bad inode: ";
      break;
    case EventType::InterconnectError:
      prefix = "hsn: link error detected: ";
      break;
    case EventType::NodeShutdown:
      prefix = "Shutdown: system going down: ";
      break;
    case EventType::NodeHalt:
      prefix = "System halted: ";
      break;
    case EventType::NodeBoot:
      prefix = "Booting Linux on physical CPU 0x0: ";
      break;
    default:
      break;
  }
  out += prefix;
  out += symbols.view(r.detail);
  out += suffix;
}

namespace {

/// Appends the controller payload for controller-scoped event types.
void controller_payload(std::string& out, const LogRecord& r,
                        const logmodel::SymbolTable& symbols) {
  switch (r.type) {
    case EventType::SedcTemperatureWarning:
      out += "ec_sedc_warning: CPU_TEMP reading ";
      util::append_fixed(out, r.value, 3);
      out += " outside allowed band";
      return;
    case EventType::SedcVoltageWarning:
      out += "ec_sedc_warning: VDD reading ";
      util::append_fixed(out, r.value, 3);
      out += " below minimum";
      return;
    case EventType::SedcAirVelocityWarning:
      out += "ec_sedc_warning: AIR_VEL reading ";
      util::append_fixed(out, r.value, 3);
      out += " below minimum";
      return;
    case EventType::SedcFanSpeedWarning:
      out += "ec_environment: fan speed deviation reading ";
      util::append_fixed(out, r.value, 3);
      return;
    case EventType::SedcReading:
      out += "sedc: ";
      out += symbols.view(r.detail);
      out += " value=";
      util::append_fixed(out, r.value, 3);
      return;
    case EventType::CabinetPowerFault:
      out += "cabinet power fault detected";
      return;
    case EventType::CabinetMicroFault:
      out += "cabinet micro controller fault";
      return;
    case EventType::CommunicationFault:
      out += "communication fault: controller timeout";
      return;
    case EventType::ModuleHealthFault:
      out += "module health fault";
      return;
    case EventType::RpmFault:
      out += "RPM fault on fan 3";
      return;
    case EventType::EcbFault:
      out += "ECB fault: circuit breaker tripped";
      return;
    case EventType::CabinetSensorCheck:
      out += "cabinet sensor check failed";
      return;
    case EventType::GetSensorReadingFailed:
      out += "get sensor reading failed";
      return;
    case EventType::BladeHeartbeatFault:
      out += "bc heartbeat fault";
      return;
    case EventType::L0SysdMce:
      out += "L0_sysd_mce: ";
      out += symbols.view(r.detail);
      return;
    default:
      out += symbols.view(r.detail);
      return;
  }
}

void append_job_suffix(std::string& out, const LogRecord& r) {
  if (r.has_job()) {
    out += " jobid=";
    util::append_int(out, r.job_id);
  }
}

}  // namespace

void LogRenderer::append_component(std::string& out, const LogRecord& r,
                                   std::string_view fallback) const {
  if (r.has_node()) {
    topo_.cname_of(r.node).append_to(out);
  } else if (r.has_blade()) {
    topo_.cname_of_blade(r.blade).append_to(out);
  } else if (r.has_cabinet()) {
    topo_.cname_of_cabinet(r.cabinet).append_to(out);
  } else {
    out += fallback;
  }
}

void LogRenderer::append_console(std::string& out, const LogRecord& r) const {
  util::append_iso(out, r.time);
  out += ' ';
  topo_.append_node_name(out, r.node);
  if (topo_.config().naming == platform::NamingScheme::CrayCname) {
    out += ' ';
    topo_.cname_of(r.node).append_to(out);
  }
  out += r.source == LogSource::Consumer ? " hwerrd: " : " kernel: ";
  internal_payload(out, r, symbols_);
  append_job_suffix(out, r);
}

void LogRenderer::append_messages(std::string& out, const LogRecord& r) const {
  util::append_syslog(out, r.time);
  out += ' ';
  topo_.append_node_name(out, r.node);
  out += " nhc[2114]: ";
  out += symbols_.view(r.detail);
  append_job_suffix(out, r);
}

void LogRenderer::append_controller(std::string& out, const LogRecord& r) const {
  util::append_iso(out, r.time);
  out += ' ';
  append_component(out, r, "c?-?");
  out += " cc: ";
  controller_payload(out, r, symbols_);
}

void LogRenderer::append_erd(std::string& out, const LogRecord& r) const {
  util::append_iso(out, r.time);
  out += " erd ev=";
  out += logmodel::erd_event_name(r.type);
  out += " src=";
  append_component(out, r, "c0-0");
  if (r.has_node()) {
    out += " node=";
    topo_.append_node_name(out, r.node);
  }
  out += ' ';
  out += symbols_.view(r.detail);
}

void LogRenderer::append_scheduler(std::string& out, const LogRecord& r) const {
  // Minimal record-level rendering; full job groups come from
  // append_job_line which also carries the node list.
  util::append_iso(out, r.time);
  out += scheduler_ == platform::SchedulerKind::Slurm ? " slurmctld: " : " pbs_server: ";
  const std::string_view detail = symbols_.view(r.detail);
  switch (r.type) {
    case EventType::JobStart:
      out += "sched: Allocate JobId=";
      util::append_int(out, r.job_id);
      out += " App=";
      out += detail;
      break;
    case EventType::JobEnd:
      out += "JobId=";
      util::append_int(out, r.job_id);
      out += " Ended ExitCode=";
      util::append_int(out, static_cast<int>(r.value));
      out += ":0 Reason=";
      out += detail;
      break;
    case EventType::JobCancelled:
      out += "scancel JobId=";
      util::append_int(out, r.job_id);
      out += ' ';
      out += detail;
      break;
    case EventType::JobOverallocation:
      out += "error: JobId=";
      util::append_int(out, r.job_id);
      out += " allocated memory exceeds node capacity";
      break;
    case EventType::EpilogueRun:
      out += "epilog complete JobId=";
      util::append_int(out, r.job_id);
      break;
    case EventType::NhcSuspectMode:
      out += "NHC: suspect JobId=";
      util::append_int(out, r.job_id);
      break;
    default:
      out += detail;
      break;
  }
}

void LogRenderer::append(std::string& out, const LogRecord& r) const {
  switch (r.source) {
    case LogSource::Console:
    case LogSource::Consumer:
      append_console(out, r);
      return;
    case LogSource::Messages:
      append_messages(out, r);
      return;
    case LogSource::Controller:
      append_controller(out, r);
      return;
    case LogSource::Erd:
      append_erd(out, r);
      return;
    case LogSource::Scheduler:
      append_scheduler(out, r);
      return;
    case LogSource::kCount:
      return;
  }
}

namespace {

/// Event time of a job line, whether or not the job's outcome emits it.
util::TimePoint line_time(const jobs::Job& job, LogRenderer::JobLine line) noexcept {
  switch (line) {
    case LogRenderer::JobLine::Allocate:
      return job.start;
    case LogRenderer::JobLine::Overallocated:
      return job.start + util::Duration::seconds(30);
    case LogRenderer::JobLine::Cancelled:
      return job.end - util::Duration::seconds(1);
    case LogRenderer::JobLine::End:
      return job.end;
    case LogRenderer::JobLine::Epilogue:
      return job.end + util::Duration::seconds(5);
  }
  return job.start;
}

}  // namespace

std::optional<util::TimePoint> LogRenderer::job_line_time(const jobs::Job& job,
                                                          JobLine line) noexcept {
  if ((line == JobLine::Overallocated && job.outcome != jobs::JobOutcome::Overallocated) ||
      (line == JobLine::Cancelled && job.outcome != jobs::JobOutcome::UserCancelled)) {
    return std::nullopt;
  }
  return line_time(job, line);
}

void LogRenderer::append_alloc_fields(std::string& out, const jobs::Job& job) {
  out += "Apid=";
  util::append_int(out, job.apid);
  out += " User=";
  out += job.user;
  out += " App=";
  out += job.app_name;
  out += " NodeList=";
  append_node_list(out, job.nodes, topo_.config().naming, node_bits_);
  out += " NodeCnt=";
  util::append_int(out, static_cast<std::int64_t>(job.nodes.size()));
  out += " MemPerNode=";
  util::append_fixed(out, job.mem_per_node_gb, 1);
  out += 'G';
}

void LogRenderer::append_job_line(std::string& out, const jobs::Job& job, JobLine line) {
  const util::TimePoint t = line_time(job, line);
  if (scheduler_ == platform::SchedulerKind::Slurm) {
    util::append_iso(out, t);
    out += " slurmctld: ";
    switch (line) {
      case JobLine::Allocate:
        out += "sched: Allocate JobId=";
        util::append_int(out, job.job_id);
        out += ' ';
        append_alloc_fields(out, job);
        return;
      case JobLine::Overallocated:
        out += "error: JobId=";
        util::append_int(out, job.job_id);
        out += " OverallocCnt=";
        util::append_int(out, job.overallocated_nodes);
        out += " allocated memory exceeds node capacity";
        return;
      case JobLine::Cancelled:
        out += "scancel JobId=";
        util::append_int(out, job.job_id);
        out += " by user ";
        out += job.user;
        return;
      case JobLine::End:
        out += "JobId=";
        util::append_int(out, job.job_id);
        out += " Ended ExitCode=";
        util::append_int(out, job.exit_code());
        out += ":0 Reason=";
        out += to_string(job.outcome);
        return;
      case JobLine::Epilogue:
        out += "epilog complete JobId=";
        util::append_int(out, job.job_id);
        return;
    }
    return;
  }

  // Torque/PBS server-log dialect:
  //   MM/DD/YYYY HH:MM:SS;0008;PBS_Server;Job;<id>.sdb;<payload>
  util::append_torque(out, t);
  out += ";0008;PBS_Server;Job;";
  util::append_int(out, job.job_id);
  out += ".sdb;";
  switch (line) {
    case JobLine::Allocate:
      out += "Job Run ";
      append_alloc_fields(out, job);
      return;
    case JobLine::Overallocated:
      out += "OverallocCnt=";
      util::append_int(out, job.overallocated_nodes);
      out += " allocated memory exceeds node capacity";
      return;
    case JobLine::Cancelled:
      out += "Job deleted by user ";
      out += job.user;
      return;
    case JobLine::End:
      out += "Exit_status=";
      util::append_int(out, job.exit_code());
      out += " Reason=";
      out += to_string(job.outcome);
      return;
    case JobLine::Epilogue:
      out += "Epilogue complete";
      return;
  }
}

}  // namespace hpcfail::loggen
