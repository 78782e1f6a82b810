// Real multi-process deployment: fork/exec component hosting and the
// process-backed router (§3, §9 — "multiple processes" is the paper's
// central robustness mechanism, finally made literal).
//
// Two layers:
//
//   ProcessHost — fork/exec of component binaries with event-loop
//   integrated reaping. Children are watched through pidfd_open(2) (a
//   readable pidfd is a reliable, race-free SIGCHLD replacement that
//   plugs straight into the loop's poll set; a periodic waitpid fallback
//   covers kernels without it). Each child runs in its own process group
//   with PR_SET_PDEATHSIG=SIGKILL armed, so killing the Router Manager
//   — even with SIGKILL, where no cleanup code runs — reaps the whole
//   component tree instead of leaking orphans. Child stdout/stderr are
//   captured through pipes, line-buffered, prefixed onto the manager's
//   stderr and recorded in the telemetry journal. Exit statuses are
//   classified (clean exit 0 vs signal/non-zero crash) for the
//   Supervisor's breaker accounting.
//
//   ProcessRouter — the deployment driver the Router Manager uses to run
//   fea/rib/bgp/ospf/rip as real processes. It owns the master Plexus
//   (whose Finder, exposed over stcp via bind_finder_xrl, is the
//   rendezvous point every child bootstraps through), spawns one
//   xrp_component per component class, and wires the existing
//   Supervisor with process-backed Specs: restart = respawn,
//   resynced = remote common/0.1 get_status == READY, plus the
//   spawn_replacement/retire_old pair that implements hitless binary
//   upgrade. PR-3 reliable calls, PR-5 stale-stamping/resync, and PR-9
//   supervision run UNCHANGED across the kernel-enforced boundary — that
//   is the point.
#ifndef XRP_RTRMGR_PROCESS_HPP
#define XRP_RTRMGR_PROCESS_HPP

#include <sys/types.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ipc/finder_xrl.hpp"
#include "ipc/router.hpp"
#include "rtrmgr/supervisor.hpp"
#include "telemetry/journal.hpp"

namespace xrp::rtrmgr {

class ProcessHost {
public:
    struct ExitStatus {
        bool exited = false;  // reaped (always true in callbacks)
        int code = -1;        // exit code when !signaled
        int signo = 0;        // terminating signal, 0 when none
        // The breaker-relevant classification: only a voluntary, zero
        // exit is clean; signals (SIGKILL chaos included) and non-zero
        // exits are crashes.
        bool clean() const { return exited && signo == 0 && code == 0; }
        std::string str() const;
    };

    struct Spec {
        std::string name;    // log/journal label ("bgp")
        std::string binary;  // path to the executable
        std::vector<std::string> args;  // argv[1..]
        bool capture_output = true;
    };

    using ExitCallback = std::function<void(pid_t, const ExitStatus&)>;

    explicit ProcessHost(ev::EventLoop& loop, std::string node = {});
    ~ProcessHost();  // SIGKILLs and reaps every still-running child
    ProcessHost(const ProcessHost&) = delete;
    ProcessHost& operator=(const ProcessHost&) = delete;

    // Fork/exec. Returns the child pid, or -1 on failure. `on_exit`
    // fires exactly once, on the host loop, after the child is reaped.
    pid_t spawn(const Spec& spec, ExitCallback on_exit);

    // kill(2) on the child's process group. False if not ours/not alive.
    bool kill(pid_t pid, int signo);
    // Graceful stop: SIGTERM now, escalate to SIGKILL after `grace`.
    void terminate(pid_t pid,
                   ev::Duration grace = std::chrono::seconds(2));

    bool running(pid_t pid) const { return children_.count(pid) != 0; }
    size_t live_count() const { return children_.size(); }

    // Directory containing this executable (via /proc/self/exe).
    static std::string self_exe_dir();
    // Resolves the xrp_component multi-call binary: $XRP_COMPONENT_BIN,
    // then next to this executable, then ../src/ relative to it (tests
    // and benches live in sibling build directories). Empty if nowhere.
    static std::string find_component_binary();

private:
    struct Child {
        std::string name;
        pid_t pid = -1;
        int pidfd = -1;       // -1 => waitpid-poll fallback
        int out_fd = -1;      // child stdout pipe (read end)
        int err_fd = -1;      // child stderr pipe (read end)
        std::string out_partial;
        std::string err_partial;
        ExitCallback on_exit;
        ev::Timer kill_timer;  // terminate() escalation
    };

    void on_pidfd_ready(pid_t pid);
    void reap(pid_t pid, int wstatus);
    void poll_children();  // waitpid fallback when pidfd is unavailable
    void drain_output(pid_t pid, bool err_stream, bool final);
    void emit_lines(Child& c, bool err_stream, bool final);
    void close_child_fds(Child& c);

    ev::EventLoop& loop_;
    std::string node_;
    std::map<pid_t, Child> children_;
    ev::Timer poll_timer_;
    bool have_pidfd_ = true;
};

// The Router Manager side of a multi-process router.
class ProcessRouter {
public:
    struct ComponentSpec {
        std::string cls;  // "fea", "rib", "bgp", "ospf", "rip"
        // Extra argv for the component ("--feed-routes=100000").
        std::vector<std::string> extra_args;
        // RIB origin protocols for graceful restart; defaulted per class
        // (bgp -> {ebgp, ibgp}, ospf -> {ospf}, rip -> {rip}).
        std::vector<std::string> protocols;
    };

    struct Options {
        std::string node = "procrouter";
        std::string component_binary;  // default: find_component_binary()
        bool capture_output = true;
        ev::Duration probe_interval = std::chrono::seconds(2);
        ev::Duration backoff_initial = std::chrono::milliseconds(200);
        ev::Duration resync_settle = std::chrono::milliseconds(500);
        ev::Duration resync_timeout = std::chrono::seconds(60);
        int breaker_threshold = 4;
        ev::Duration breaker_window = std::chrono::seconds(60);
    };

    // `loop` must be a real-clock loop (children are real processes on
    // real sockets); it must outlive the ProcessRouter.
    // (Two constructors, not a default argument: a nested aggregate's
    // member initializers cannot be evaluated in a default argument of
    // the enclosing class.)
    explicit ProcessRouter(ev::EventLoop& loop);
    ProcessRouter(ev::EventLoop& loop, Options opts);
    ~ProcessRouter();
    ProcessRouter(const ProcessRouter&) = delete;
    ProcessRouter& operator=(const ProcessRouter&) = delete;

    // Spawns every component and supervises it. Returns false if the
    // component binary cannot be found or a spawn fails outright.
    bool start(const std::vector<ComponentSpec>& components);

    // Drives the loop until every component reports common/0.1
    // get_status == READY (a fed component reports READY only once its
    // initial table push is fully acknowledged). False on timeout.
    bool wait_all_ready(ev::Duration limit);

    // Hitless binary upgrade of one component (Supervisor::upgrade).
    bool upgrade(const std::string& cls);
    // Real signal to the component's ACTIVE process (SIGKILL chaos).
    bool kill(const std::string& cls, int signo);

    pid_t active_pid(const std::string& cls) const;
    std::string active_instance(const std::string& cls) const;

    Supervisor& supervisor() { return *supervisor_; }
    ProcessHost& host() { return host_; }
    ipc::Plexus& plexus() { return plexus_; }
    ev::EventLoop& loop() { return loop_; }
    // The master Finder face's stcp address children bootstrap through.
    const std::string& finder_address() const { return finder_address_; }

    // Synchronous query helpers: issue the XRL and drive the loop until
    // the reply (or `limit`). For tests/benches, not the fast path.
    std::optional<uint32_t> query_u32(const std::string& target,
                                      const std::string& iface,
                                      const std::string& version,
                                      const std::string& method,
                                      const std::string& field,
                                      ev::Duration limit =
                                          std::chrono::seconds(5));
    std::optional<uint64_t> query_u64(const std::string& target,
                                      const std::string& iface,
                                      const std::string& version,
                                      const std::string& method,
                                      const std::string& field,
                                      ev::Duration limit =
                                          std::chrono::seconds(5));
    // fea/1.0 get_fib_size, nullopt-free convenience (0 on failure).
    uint32_t fib_size();

    // One cross-process timeline: every managed component's
    // telemetry/1.0 journal_dump_json plus the manager's own journal,
    // merged by t_ns (every process on one host reads the same
    // CLOCK_MONOTONIC). `source` names the process: a component class,
    // or "rtrmgr". Components that do not answer within `limit` are left
    // out; lines that do not parse are skipped and counted.
    struct TimelineEvent {
        std::string source;
        telemetry::JournalEvent event;
    };
    struct Timeline {
        std::vector<TimelineEvent> events;  // oldest first
        size_t malformed = 0;
    };
    Timeline journal_timeline(ev::Duration limit = std::chrono::seconds(5));

private:
    struct Managed {
        ComponentSpec spec;
        pid_t pid = -1;                // active process
        std::string instance;          // active Finder instance name
        bool awaiting_birth = false;   // next Finder birth names `instance`
        std::set<pid_t> retiring;      // pre-upgrade processes on the way out
        uint32_t last_status = 0;      // latest remote get_status answer
        bool status_inflight = false;
        uint64_t boots = 0;
    };

    void spawn(const std::string& cls);             // (re)spawn active
    void spawn_replacement(const std::string& cls);  // upgrade step 2
    void retire_old(const std::string& cls);         // upgrade step 4
    void on_exit(const std::string& cls, pid_t pid,
                 const ProcessHost::ExitStatus& st);
    void poll_status();  // periodic remote get_status for resynced()
    std::vector<std::string> component_argv(const Managed& m) const;
    static std::vector<std::string> default_protocols(const std::string& cls);

    ev::EventLoop& loop_;
    Options opts_;
    ipc::Plexus plexus_;
    std::unique_ptr<ipc::XrlRouter> finder_face_;
    std::string finder_address_;
    std::unique_ptr<ipc::XrlRouter> mgr_xr_;
    ProcessHost host_;
    std::unique_ptr<Supervisor> supervisor_;
    std::map<std::string, Managed> components_;
    uint64_t birth_watch_ = 0;
    ev::Timer status_timer_;
};

}  // namespace xrp::rtrmgr

#endif
