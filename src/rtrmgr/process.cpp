#include "rtrmgr/process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ipc/common_xrl.hpp"
#include "telemetry/journal.hpp"

namespace xrp::rtrmgr {

using xrl::Xrl;
using xrl::XrlArgs;

// ---------------------------------------------------------------- ProcessHost

std::string ProcessHost::ExitStatus::str() const {
    if (!exited) return "running";
    if (signo != 0) return "signal " + std::string(strsignal(signo));
    return "exit " + std::to_string(code);
}

ProcessHost::ProcessHost(ev::EventLoop& loop, std::string node)
    : loop_(loop), node_(std::move(node)) {}

ProcessHost::~ProcessHost() {
    // No cleanup protocol at this point: anything still running is killed
    // (whole process group) and reaped synchronously. Exit callbacks do
    // not fire — the owner is going away.
    for (auto& [pid, c] : children_) {
        ::kill(-pid, SIGKILL);
        int st = 0;
        while (waitpid(pid, &st, 0) < 0 && errno == EINTR) {}
        close_child_fds(c);
    }
    children_.clear();
}

pid_t ProcessHost::spawn(const Spec& spec, ExitCallback on_exit) {
    int outp[2] = {-1, -1}, errp[2] = {-1, -1};
    if (spec.capture_output) {
        if (pipe2(outp, O_CLOEXEC) < 0) return -1;
        if (pipe2(errp, O_CLOEXEC) < 0) {
            ::close(outp[0]);
            ::close(outp[1]);
            return -1;
        }
    }

    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        for (int fd : {outp[0], outp[1], errp[0], errp[1]})
            if (fd >= 0) ::close(fd);
        return -1;
    }

    if (pid == 0) {
        // Child. Own process group so the manager can signal the whole
        // component tree with one kill(-pid), and a parent-death SIGKILL
        // so a SIGKILLed manager (no cleanup code runs) still takes its
        // components down with it — the kernel enforces the no-orphans
        // invariant, not our shutdown path.
        setpgid(0, 0);
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        // PDEATHSIG arms against the CURRENT parent; if the manager died
        // in the fork/prctl window we are already reparented and the
        // signal will never come — bail out ourselves.
        if (getppid() != parent) _exit(125);
        if (spec.capture_output) {
            dup2(outp[1], STDOUT_FILENO);
            dup2(errp[1], STDERR_FILENO);
        }
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>(spec.binary.c_str()));
        for (const std::string& a : spec.args)
            argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        execv(spec.binary.c_str(), argv.data());
        fprintf(stderr, "execv %s: %s\n", spec.binary.c_str(),
                strerror(errno));
        _exit(127);
    }

    // Parent. Mirror the child's setpgid so a kill(-pid) issued before the
    // child reaches its own setpgid still targets the right group.
    setpgid(pid, pid);

    Child c;
    c.name = spec.name;
    c.pid = pid;
    c.on_exit = std::move(on_exit);
    if (spec.capture_output) {
        ::close(outp[1]);
        ::close(errp[1]);
        c.out_fd = outp[0];
        c.err_fd = errp[0];
        fcntl(c.out_fd, F_SETFL, O_NONBLOCK);
        fcntl(c.err_fd, F_SETFL, O_NONBLOCK);
    }

    if (have_pidfd_) {
        int pfd = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
        if (pfd >= 0) {
            c.pidfd = pfd;
        } else {
            // Kernel without pidfd_open: fall back to a waitpid poll for
            // every child from here on.
            have_pidfd_ = false;
        }
    }

    children_[pid] = std::move(c);
    Child& stored = children_[pid];

    if (stored.pidfd >= 0) {
        // A pidfd polls readable once the child terminates — exactly the
        // event-loop-native SIGCHLD replacement, with no signal-handler
        // global state and no pid-reuse race (the fd pins the identity).
        loop_.add_reader(stored.pidfd,
                         [this, pid] { on_pidfd_ready(pid); });
    } else if (!poll_timer_.scheduled()) {
        poll_timer_ = loop_.set_periodic(std::chrono::milliseconds(100),
                                         [this] {
                                             poll_children();
                                             return !children_.empty();
                                         });
    }
    if (stored.out_fd >= 0)
        loop_.add_reader(stored.out_fd,
                         [this, pid] { drain_output(pid, false, false); });
    if (stored.err_fd >= 0)
        loop_.add_reader(stored.err_fd,
                         [this, pid] { drain_output(pid, true, false); });
    return pid;
}

bool ProcessHost::kill(pid_t pid, int signo) {
    if (children_.count(pid) == 0) return false;
    return ::kill(-pid, signo) == 0;
}

void ProcessHost::terminate(pid_t pid, ev::Duration grace) {
    auto it = children_.find(pid);
    if (it == children_.end()) return;
    ::kill(-pid, SIGTERM);
    it->second.kill_timer = loop_.set_timer(grace, [this, pid] {
        if (children_.count(pid)) ::kill(-pid, SIGKILL);
    });
}

void ProcessHost::on_pidfd_ready(pid_t pid) {
    int st = 0;
    pid_t r = waitpid(pid, &st, WNOHANG);
    if (r != pid) return;  // spurious wakeup; the fd will fire again
    reap(pid, st);
}

void ProcessHost::poll_children() {
    // waitpid fallback: cheap WNOHANG sweep across our children.
    std::vector<std::pair<pid_t, int>> done;
    for (auto& [pid, c] : children_) {
        int st = 0;
        if (waitpid(pid, &st, WNOHANG) == pid) done.emplace_back(pid, st);
    }
    for (auto& [pid, st] : done) reap(pid, st);
}

void ProcessHost::reap(pid_t pid, int wstatus) {
    auto it = children_.find(pid);
    if (it == children_.end()) return;
    Child& c = it->second;

    ExitStatus es;
    es.exited = true;
    if (WIFEXITED(wstatus)) es.code = WEXITSTATUS(wstatus);
    if (WIFSIGNALED(wstatus)) es.signo = WTERMSIG(wstatus);

    // Pull whatever the child managed to write before dying; the pipes
    // outlive the process.
    if (c.out_fd >= 0) drain_output(pid, false, true);
    if (c.err_fd >= 0) drain_output(pid, true, true);
    close_child_fds(c);

    fprintf(stderr, "[prochost] %s (pid %d): %s\n", c.name.c_str(),
            static_cast<int>(pid), es.str().c_str());
    if (telemetry::journal_enabled())
        telemetry::Journal::current().record(
            loop_.now(), telemetry::JournalKind::kProcessExit, node_,
            "prochost", c.name, es.str(), static_cast<int64_t>(pid));

    ExitCallback cb = std::move(c.on_exit);
    std::string name = c.name;
    children_.erase(it);
    if (cb) cb(pid, es);
}

void ProcessHost::drain_output(pid_t pid, bool err_stream, bool final) {
    auto it = children_.find(pid);
    if (it == children_.end()) return;
    Child& c = it->second;
    int fd = err_stream ? c.err_fd : c.out_fd;
    if (fd < 0) return;
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            (err_stream ? c.err_partial : c.out_partial).append(buf, n);
            emit_lines(c, err_stream, false);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        // EOF (every write end closed) or hard error: retire the stream.
        loop_.remove_reader(fd);
        ::close(fd);
        (err_stream ? c.err_fd : c.out_fd) = -1;
        emit_lines(c, err_stream, true);
        break;
    }
    if (final) emit_lines(c, err_stream, true);
}

void ProcessHost::emit_lines(Child& c, bool err_stream, bool final) {
    std::string& buf = err_stream ? c.err_partial : c.out_partial;
    size_t start = 0;
    for (;;) {
        size_t nl = buf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = buf.substr(start, nl - start);
        start = nl + 1;
        if (line.empty()) continue;
        fprintf(stderr, "[%s] %s\n", c.name.c_str(), line.c_str());
        if (telemetry::journal_enabled())
            telemetry::Journal::current().record(
                loop_.now(), telemetry::JournalKind::kProcessOutput, node_,
                "prochost", c.name, line);
    }
    buf.erase(0, start);
    if (final && !buf.empty()) {
        fprintf(stderr, "[%s] %s\n", c.name.c_str(), buf.c_str());
        if (telemetry::journal_enabled())
            telemetry::Journal::current().record(
                loop_.now(), telemetry::JournalKind::kProcessOutput, node_,
                "prochost", c.name, buf);
        buf.clear();
    }
}

void ProcessHost::close_child_fds(Child& c) {
    for (int* fd : {&c.pidfd, &c.out_fd, &c.err_fd}) {
        if (*fd < 0) continue;
        loop_.remove_reader(*fd);
        ::close(*fd);
        *fd = -1;
    }
    c.kill_timer.unschedule();
}

std::string ProcessHost::self_exe_dir() {
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) return {};
    buf[n] = '\0';
    std::string path(buf);
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string ProcessHost::find_component_binary() {
    if (const char* env = std::getenv("XRP_COMPONENT_BIN"))
        if (access(env, X_OK) == 0) return env;
    const std::string dir = self_exe_dir();
    if (dir.empty()) return {};
    for (const char* rel : {"/xrp_component", "/../src/xrp_component"}) {
        std::string cand = dir + rel;
        if (access(cand.c_str(), X_OK) == 0) return cand;
    }
    return {};
}

// -------------------------------------------------------------- ProcessRouter

ProcessRouter::ProcessRouter(ev::EventLoop& loop)
    : ProcessRouter(loop, Options()) {}

ProcessRouter::ProcessRouter(ev::EventLoop& loop, Options opts)
    : loop_(loop),
      opts_(std::move(opts)),
      plexus_(loop),
      host_(loop, opts_.node) {
    plexus_.node = opts_.node;
    // The master Finder face listens on stcp: this address is the single
    // bootstrap datum a child needs (passed via --finder=).
    finder_face_ = ipc::bind_finder_xrl(plexus_, /*tcp=*/true);
    finder_address_ = finder_face_->tcp_address();

    mgr_xr_ = std::make_unique<ipc::XrlRouter>(plexus_, "rtrmgr", true);
    mgr_xr_->finalize();
    supervisor_ = std::make_unique<Supervisor>(plexus_, *mgr_xr_);

    // Births tell us which Finder instance name the process we just
    // spawned was assigned: exactly one spawn is awaiting a birth per
    // class at any time, so (cls, awaiting flag) is an unambiguous join.
    birth_watch_ = plexus_.finder.watch(
        "*", [this](finder::LifetimeEvent ev, const std::string& cls,
                    const std::string& instance) {
            if (ev != finder::LifetimeEvent::kBirth) return;
            loop_.run_on([this, cls, instance] {
                auto it = components_.find(cls);
                if (it == components_.end() || !it->second.awaiting_birth)
                    return;
                it->second.instance = instance;
                it->second.awaiting_birth = false;
            });
        });

    status_timer_ = loop_.set_periodic(std::chrono::milliseconds(250),
                                       [this] {
                                           poll_status();
                                           return true;
                                       });
}

ProcessRouter::~ProcessRouter() {
    status_timer_.unschedule();
    plexus_.finder.unwatch(birth_watch_);
    supervisor_.reset();  // stop probes before the processes go away
}

std::vector<std::string> ProcessRouter::default_protocols(
    const std::string& cls) {
    if (cls == "bgp") return {"ebgp", "ibgp"};
    if (cls == "ospf") return {"ospf"};
    if (cls == "rip") return {"rip"};
    return {};
}

bool ProcessRouter::start(const std::vector<ComponentSpec>& components) {
    if (opts_.component_binary.empty())
        opts_.component_binary = ProcessHost::find_component_binary();
    if (opts_.component_binary.empty()) {
        fprintf(stderr,
                "procrouter: xrp_component binary not found "
                "(set XRP_COMPONENT_BIN)\n");
        return false;
    }
    for (const ComponentSpec& spec : components) {
        Managed m;
        m.spec = spec;
        if (m.spec.protocols.empty())
            m.spec.protocols = default_protocols(spec.cls);
        components_[spec.cls] = std::move(m);
    }
    for (auto& [cls, m] : components_) {
        spawn(cls);
        if (m.pid < 0) return false;

        Supervisor::Spec s;
        s.cls = cls;
        s.protocols = m.spec.protocols;
        s.probe_interval = opts_.probe_interval;
        s.backoff_initial = opts_.backoff_initial;
        s.resync_settle = opts_.resync_settle;
        s.resync_timeout = opts_.resync_timeout;
        s.breaker_threshold = opts_.breaker_threshold;
        s.breaker_window = opts_.breaker_window;
        s.restart = [this, cls = cls] {
            auto it = components_.find(cls);
            if (it == components_.end()) return;
            // A restart supersedes any in-flight upgrade: stale retiring
            // processes have nothing left to hand over.
            for (pid_t p : it->second.retiring) host_.kill(p, SIGKILL);
            it->second.retiring.clear();
            spawn(cls);
        };
        s.resynced = [this, cls = cls] {
            auto it = components_.find(cls);
            return it != components_.end() &&
                   it->second.last_status == ipc::kProcessReady;
        };
        s.spawn_replacement = [this, cls = cls] { spawn_replacement(cls); };
        s.retire_old = [this, cls = cls] { retire_old(cls); };
        s.owns_instance = [this, cls = cls](const std::string& instance) {
            auto it = components_.find(cls);
            return it != components_.end() && !instance.empty() &&
                   it->second.instance == instance;
        };
        supervisor_->supervise(std::move(s));
    }
    return true;
}

std::vector<std::string> ProcessRouter::component_argv(
    const Managed& m) const {
    std::vector<std::string> argv;
    argv.push_back("--class=" + m.spec.cls);
    argv.push_back("--finder=" + finder_address_);
    argv.push_back("--node=" + opts_.node);
    for (const std::string& a : m.spec.extra_args) argv.push_back(a);
    return argv;
}

void ProcessRouter::spawn(const std::string& cls) {
    Managed& m = components_[cls];
    ProcessHost::Spec ps;
    ps.name = cls;
    ps.binary = opts_.component_binary;
    ps.args = component_argv(m);
    ps.capture_output = opts_.capture_output;
    m.instance.clear();
    m.awaiting_birth = true;
    m.last_status = 0;
    ++m.boots;
    m.pid = host_.spawn(ps, [this, cls](pid_t pid,
                                        const ProcessHost::ExitStatus& st) {
        on_exit(cls, pid, st);
    });
    if (m.pid < 0) {
        m.awaiting_birth = false;
        fprintf(stderr, "procrouter: spawn of %s failed\n", cls.c_str());
    }
}

void ProcessRouter::spawn_replacement(const std::string& cls) {
    Managed& m = components_[cls];
    // Rotate the live process into the retiring set; the fresh spawn
    // becomes the active one the moment its Finder birth lands.
    if (m.pid > 0) m.retiring.insert(m.pid);
    spawn(cls);
}

void ProcessRouter::retire_old(const std::string& cls) {
    Managed& m = components_[cls];
    for (pid_t p : m.retiring) host_.terminate(p);
    // on_exit prunes the set as each one is reaped.
}

void ProcessRouter::on_exit(const std::string& cls, pid_t pid,
                            const ProcessHost::ExitStatus& st) {
    auto it = components_.find(cls);
    if (it == components_.end()) return;
    Managed& m = it->second;

    if (m.retiring.erase(pid) > 0) {
        // A pre-upgrade process left. Clean departure is the expected
        // end of retire_old (it already unregistered itself); a crash
        // just means the handover ended abruptly — either way the ACTIVE
        // instance owns the class now and the supervisor must not hear
        // about it.
        return;
    }
    if (pid != m.pid) return;  // a corpse from an older generation

    // The ACTIVE process died. Report the instance dead FIRST — marking
    // it down in the Finder makes every cached resolution fail fast and
    // fires death watches — then hand the supervisor the authoritative
    // exit classification. notify_exit runs synchronously, so it wins
    // the race against the posted watch callback (which then no-ops on
    // the state guard) and a clean exit is never miscounted as a crash.
    const std::string instance = m.instance;
    m.pid = -1;
    m.instance.clear();
    m.awaiting_birth = false;
    m.last_status = 0;
    if (!instance.empty()) plexus_.finder.report_dead(instance);
    supervisor_->notify_exit(cls, st.clean());
}

void ProcessRouter::poll_status() {
    // Feeds Supervisor::Spec::resynced: while a class is resyncing, ask
    // the ACTIVE instance (by instance name — mid-upgrade the class name
    // could resolve to the retiring process) for its status.
    for (auto& [cls, m] : components_) {
        if (supervisor_->state(cls) != Supervisor::State::kResync) continue;
        if (m.instance.empty() || m.status_inflight) continue;
        m.status_inflight = true;
        auto opts = ipc::CallOptions::reliable()
                        .with_deadline(std::chrono::seconds(5))
                        .with_attempt_timeout(std::chrono::seconds(2));
        mgr_xr_->call(
            Xrl::generic(m.instance, "common", "0.1", "get_status"), opts,
            [this, cls = cls](const xrl::XrlError& err, const XrlArgs& args) {
                auto cit = components_.find(cls);
                if (cit == components_.end()) return;
                cit->second.status_inflight = false;
                if (err.ok())
                    cit->second.last_status = args.get_u32("status").value_or(0);
            });
    }
}

bool ProcessRouter::wait_all_ready(ev::Duration limit) {
    const ev::TimePoint deadline = loop_.now() + limit;
    for (auto& [cls, m] : components_) {
        for (;;) {
            if (loop_.now() >= deadline) return false;
            const std::string target = m.instance.empty() ? cls : m.instance;
            auto s = query_u32(target, "common", "0.1", "get_status",
                               "status", std::chrono::seconds(2));
            if (s && *s == ipc::kProcessReady) break;
            loop_.run_for(std::chrono::milliseconds(200));
        }
    }
    return true;
}

bool ProcessRouter::upgrade(const std::string& cls) {
    return supervisor_->upgrade(cls);
}

bool ProcessRouter::kill(const std::string& cls, int signo) {
    auto it = components_.find(cls);
    if (it == components_.end() || it->second.pid < 0) return false;
    return host_.kill(it->second.pid, signo);
}

pid_t ProcessRouter::active_pid(const std::string& cls) const {
    auto it = components_.find(cls);
    return it == components_.end() ? -1 : it->second.pid;
}

std::string ProcessRouter::active_instance(const std::string& cls) const {
    auto it = components_.find(cls);
    return it == components_.end() ? std::string() : it->second.instance;
}

namespace {
template <typename T, typename Get>
std::optional<T> query_field(ev::EventLoop& loop, ipc::XrlRouter& xr,
                             const std::string& target,
                             const std::string& iface,
                             const std::string& version,
                             const std::string& method,
                             Get get, ev::Duration limit) {
    auto out = std::make_shared<std::optional<T>>();
    auto done = std::make_shared<bool>(false);
    auto opts = ipc::CallOptions::reliable()
                    .with_deadline(limit)
                    .with_attempt_timeout(std::chrono::seconds(2));
    xr.call(Xrl::generic(target, iface, version, method), opts,
            [out, done, get](const xrl::XrlError& err, const XrlArgs& args) {
                if (err.ok()) *out = get(args);
                *done = true;
            });
    loop.run_until([done] { return *done; }, limit + std::chrono::seconds(1));
    return *out;
}
}  // namespace

std::optional<uint32_t> ProcessRouter::query_u32(
    const std::string& target, const std::string& iface,
    const std::string& version, const std::string& method,
    const std::string& field, ev::Duration limit) {
    return query_field<uint32_t>(
        loop_, *mgr_xr_, target, iface, version, method,
        [field](const XrlArgs& a) -> std::optional<uint32_t> {
            return a.get_u32(field);
        },
        limit);
}

std::optional<uint64_t> ProcessRouter::query_u64(
    const std::string& target, const std::string& iface,
    const std::string& version, const std::string& method,
    const std::string& field, ev::Duration limit) {
    return query_field<uint64_t>(
        loop_, *mgr_xr_, target, iface, version, method,
        [field](const XrlArgs& a) -> std::optional<uint64_t> {
            return a.get_u64(field);
        },
        limit);
}

uint32_t ProcessRouter::fib_size() {
    return query_u32("fea", "fea", "1.0", "get_fib_size", "count")
        .value_or(0);
}

ProcessRouter::Timeline ProcessRouter::journal_timeline(ev::Duration limit) {
    Timeline out;
    auto add = [&out](const std::string& source,
                      std::vector<telemetry::JournalEvent> events) {
        for (auto& e : events) out.events.push_back({source, std::move(e)});
    };
    add("rtrmgr", telemetry::Journal::current().events());
    for (const auto& [cls, m] : components_) {
        auto text = query_field<std::string>(
            loop_, *mgr_xr_, cls, "telemetry", "1.0", "journal_dump_json",
            [](const XrlArgs& a) { return a.get_text("text"); }, limit);
        if (!text) continue;
        std::vector<telemetry::JournalEvent> events;
        out.malformed += telemetry::parse_jsonl(*text, events);
        add(cls, std::move(events));
    }
    std::stable_sort(out.events.begin(), out.events.end(),
                     [](const TimelineEvent& a, const TimelineEvent& b) {
                         return a.event.t < b.event.t;
                     });
    return out;
}

}  // namespace xrp::rtrmgr
