/**
 * @file
 * End-to-end proving benchmark: real proofs from the real service over
 * loopback, verified by the client, timed on the host wall clock.
 *
 *   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
 *                 --batchzk PATH --out-dir DIR
 *
 * --trace 0 spawns `batchzk serve` (SnarkExecutor, 2 workers) several
 * times to time set-up, then drives the workload from one client
 * thread and prints the end-to-end metrics. --trace 1 runs the same
 * workload against an in-process ProofServer twice — with
 * SnarkExecutor, then with the benchmark's TracedExecutor — and prints
 * the per-layer metrics; every traced proof is re-proved with
 * SnarkExecutor and must match byte for byte. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}. NOTES.md
 * explains the workloads and what each metric should move.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "LoopbackLoad.h"
#include "ServeProcess.h"
#include "TracedExecutor.h"
#include "Workload.h"
#include "ff/FieldBackend.h"
#include "net/Executor.h"
#include "net/Server.h"
#include "obs/Trace.h"

using namespace perfbench;

namespace {

/** Workers of the served executor (`batchzk serve --threads`). */
constexpr size_t kWorkers = 2;
/** Largest task size the server admits (`--log-gates`). */
constexpr unsigned kMaxNVars = 14;
/** `batchzk serve` spawns timed for setup_s (median reported). */
constexpr int kSetupSpawns = 15;
/** Traced spans must cover at least this share of client latency. */
constexpr double kMinCoverage = 0.95;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    int trace = 0;
    std::string batchzk;
    std::string out_dir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
                 "NAME --seed N --seconds S --trace 0|1 --batchzk PATH "
                 "--out-dir DIR\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string value = argv[++i];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            a.trace = std::atoi(value.c_str());
        else if (key == "--batchzk")
            a.batchzk = value;
        else if (key == "--out-dir")
            a.out_dir = value;
        else
            usage(("unknown flag " + key).c_str());
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

/** Linear-interpolated quantile of @p v (sorted copy), q in [0,1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    void
    print(bool correct, size_t attempted, size_t failed) const
    {
        for (const Metric &m : metrics_)
            std::printf("  %-36s %14.6g %-9s %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.note.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                    "%zu, \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::vector<Metric> metrics_;
};

/** Outcome accounting over one phase; see NOTES.md "Accounting". */
struct Accounting
{
    size_t attempted = 0;
    size_t verified = 0;
    std::map<Outcome, size_t> by_outcome;
    /** Any delivered proof failed to verify, an id had no single
     *  terminal outcome, or a connection was lost. */
    bool broken = false;
    std::vector<double> latencies;
    size_t within_slo = 0;
};

Accounting
account(const LoadResult &r, const Workload &w)
{
    Accounting a;
    a.broken = r.connection_lost || r.duplicate_results != 0 ||
               r.unknown_results != 0;
    for (const TaskRecord &t : r.tasks) {
        if (t.outcome == Outcome::VerifyFailed ||
            t.outcome == Outcome::Pending || t.outcome == Outcome::Lost)
            a.broken = true;
        if (!t.measured)
            continue;
        ++a.attempted;
        ++a.by_outcome[t.outcome];
        if (t.outcome != Outcome::Verified)
            continue;
        ++a.verified;
        a.latencies.push_back(t.latency());
        if (t.latency() <= w.slo_ms)
            ++a.within_slo;
    }
    return a;
}

void
printAccounting(const Accounting &a)
{
    std::printf("outcomes    :");
    for (auto [o, n] : a.by_outcome)
        std::printf(" %s=%zu", outcomeName(o), n);
    std::printf(" (attempted %zu)\n", a.attempted);
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v ? v : fallback;
}

void
printHeader(const Args &args, const Workload &w)
{
    using namespace bzk::ff;
    std::printf("workload    : %s — closed loop, %zu connection(s), n_vars "
                "%u, %s\n",
                w.name.c_str(), w.connections, w.n_vars,
                w.mixed ? "50/50 table-commit/high-degree-gate"
                        : bzk::sched::protocolKindName(w.kind));
    std::printf("run         : seed %llu, %.0f s, trace %d, %zu "
                "server workers, SLO %.0f ms, host wall clock\n",
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, kWorkers, w.slo_ms);
    WideBackend wide = activeWideBackend();
    std::printf("field       : backend %s (BZK_FIELD_BACKEND=%s), wide "
                "%s x%zu lanes, IFMA available %d enabled %d "
                "(BZK_FIELD_IFMA=%s)\n",
                backendName(activeBackend()),
                envOr("BZK_FIELD_BACKEND", "unset").c_str(),
                wideBackendName(wide), wideBackendLanes(wide),
                int(wideIfmaAvailable()), int(wideIfmaEnabled()),
                envOr("BZK_FIELD_IFMA", "unset").c_str());
}

/** Per-task CSV of a run (send time relative to the measured phase). */
void
writeTaskCsv(const std::string &path, const LoadResult &r)
{
    std::ofstream f(path);
    f << "task_id,kind,send_ms,latency_ms,outcome\n";
    for (const TaskRecord &t : r.tasks)
        if (t.measured)
            f << t.submit.task_id << ','
              << bzk::sched::protocolKindName(t.submit.kind) << ','
              << t.send - r.begin << ',' << t.latency() << ','
              << outcomeName(t.outcome) << '\n';
}

/** Steal and total jiffies of all vCPUs, from /proc/stat. */
std::pair<double, double>
hostCpuJiffies()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    f >> cpu;
    double total = 0, steal = 0, v = 0;
    for (int i = 0; i < 8 && f >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

// --------------------------------------------------------------------
// --trace 0: end-to-end metrics against `batchzk serve`.
// --------------------------------------------------------------------

int
runEndToEnd(const Args &args, const Workload &w)
{
    std::vector<double> setups;
    std::unique_ptr<ServeProcess> server;
    std::vector<Conn> conns;
    for (int i = 0; i < kSetupSpawns; ++i) {
        conns.clear();
        server = std::make_unique<ServeProcess>(); // stops the previous
        double t0 = nowMs();
        auto port = server->start(args.batchzk, kMaxNVars, kWorkers);
        if (!port) {
            std::fprintf(stderr, "cannot start %s serve\n",
                         args.batchzk.c_str());
            return 1;
        }
        auto conn = connectHandshake(*port);
        if (!conn) {
            std::fprintf(stderr, "handshake with the server failed\n");
            return 1;
        }
        setups.push_back((nowMs() - t0) / 1e3);
        conns.push_back(std::move(*conn));
        while (i + 1 == kSetupSpawns && conns.size() < w.connections) {
            auto extra = connectHandshake(*port);
            if (!extra) {
                std::fprintf(stderr, "handshake with the server failed\n");
                return 1;
            }
            conns.push_back(std::move(*extra));
        }
    }

    TaskStream stream(w, args.seed);
    Verifier verifier(w.n_vars);
    LoadDriver driver(w, stream, verifier, conns, false);
    // Server CPU is sampled around warm-up and measured phase alike, and
    // divided over every proof served in between.
    double cpu_begin = server->cpuMs();
    LoadResult r = driver.run(args.seconds);
    double cpu_end = server->cpuMs();
    double rss_mb = server->peakRssMb();
    conns.clear();
    bool clean_exit = server->stop();

    Accounting a = account(r, w);
    writeTaskCsv(args.out_dir + "/tasks-" + w.name + "-seed" +
                     std::to_string(args.seed) + ".csv",
                 r);
    size_t warm = r.tasks.size() - a.attempted;
    double cpu_per_proof =
        (cpu_end - cpu_begin) / static_cast<double>(a.verified + warm);
    double wall_s = (r.end - r.begin) / 1e3;

    printAccounting(a);
    std::printf("server      : exit after SIGTERM %s\n",
                clean_exit ? "clean" : "NOT clean");
    size_t n = a.latencies.size();
    Report rep;
    rep.add("proofs_per_s", a.verified / wall_s, "1/s",
            "(" + std::to_string(a.verified) + " verified proofs)");
    rep.add("latency_p50_ms", quantile(a.latencies, 0.5), "ms",
            "(n=" + std::to_string(n) + ")");
    rep.add("latency_p90_ms", quantile(a.latencies, 0.9), "ms",
            "(n=" + std::to_string(n) + ", " +
                std::to_string(n / 10) + " beyond)");
    // The highest percentile with at least ten samples beyond it, when
    // it is above p90; printed, not part of the JSON result.
    for (int pct : {99, 98, 95}) {
        size_t beyond = n * static_cast<size_t>(100 - pct) / 100;
        if (beyond < 10)
            continue;
        std::printf("  %-36s %14.6g %-9s (n=%zu, %zu beyond; printed "
                    "only)\n",
                    ("latency_p" + std::to_string(pct) + "_ms").c_str(),
                    quantile(a.latencies, pct / 100.0), "ms", n, beyond);
        break;
    }
    rep.add("within_slo_fraction",
            a.attempted ? double(a.within_slo) / double(a.attempted) : 0,
            "fraction", "(limit " + std::to_string(int(w.slo_ms)) +
                            " ms; misses include every non-verified)");
    rep.add("verified_fraction",
            a.attempted ? double(a.verified) / double(a.attempted) : 0,
            "fraction");
    rep.add("server_cpu_ms_per_proof", cpu_per_proof, "ms",
            "(utime+stime of batchzk serve)");
    rep.add("peak_rss_mb", rss_mb, "MB", "(VmHWM of batchzk serve)");
    rep.add("setup_s", quantile(setups, 0.5), "s",
            "(median of " + std::to_string(kSetupSpawns) +
                " spawns to first HelloAck)");
    bool correct = !a.broken && clean_exit;
    rep.print(correct, a.attempted, a.attempted - a.verified);
    if (!correct)
        std::fprintf(stderr, "FAILED: a delivered proof did not verify, "
                             "a task had no single terminal outcome, or "
                             "the server did not exit cleanly\n");
    return correct ? 0 : 1;
}

// --------------------------------------------------------------------
// --trace 1: per-layer metrics from the in-process traced server.
// --------------------------------------------------------------------

struct Span
{
    uint64_t task_id;
    bzk::sched::ProtocolKind kind;
    std::string layer;
    double begin, end;
    /** Index of the parent span in the same task's list; -1 = root. */
    int parent;
};

/** The span tree of one traced task; index 0 is the root request. */
std::vector<Span>
taskSpans(const TaskRecord &t, const ExecTimes &e)
{
    std::vector<Span> s;
    auto add = [&](const char *layer, double b, double en, int parent) {
        s.push_back({t.submit.task_id, t.submit.kind, layer, b, en,
                     parent});
        return static_cast<int>(s.size() - 1);
    };
    int root = add("request", t.send, t.verify_end, -1);
    add("net.to_worker", t.send, e.entry, root);
    int ex = add("exec.execute", e.entry, e.exit, root);
    add("core.instance", e.instance_begin, e.instance_end, ex);
    add("core.commit", e.prove_begin, e.merkle_hook, ex);
    add("core.fiat_shamir", e.merkle_hook, e.fiat_shamir_hook, ex);
    add("sumcheck.prove", e.fiat_shamir_hook, e.sumcheck_hook, ex);
    add("core.open", e.sumcheck_hook, e.prove_end, ex);
    add("core.serialize", e.prove_end, e.serialize_end, ex);
    add("net.from_worker", e.exit, t.decoded, root);
    add("core.deserialize", t.deser_begin, t.deser_end, root);
    add("core.verify", t.deser_end, t.verify_end, root);
    return s;
}

/** Self time of each span: its duration minus its children's. */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].begin;
    for (const Span &sp : spans)
        if (sp.parent >= 0)
            self[sp.parent] -= sp.end - sp.begin;
    return self;
}

/** Exact per-proof work counts of one kind, from serial proofs. */
struct WorkCounts
{
    bzk::ff::KernelCounters kernels;
    double encoder_rows = 0;
    double sha256_compressions = 0;
};

using KernelField = uint64_t bzk::ff::KernelCounters::*;

/**
 * (metric name, counter) of the wide kernels reported per proof; the
 * other kernels count zero on both proof kinds.
 */
const std::vector<std::pair<const char *, KernelField>> &
reportedKernels()
{
    using K = bzk::ff::KernelCounters;
    static const std::vector<std::pair<const char *, KernelField>> k = {
        {"ff.wide_fold_lanes_per_proof", &K::wide_fold_lanes},
        {"ff.wide_axpy_lanes_per_proof", &K::wide_axpy_lanes},
        {"ff.wide_dot_lanes_per_proof", &K::wide_dot_lanes},
    };
    return k;
}

/**
 * Serial calibration of one kind: prove three tasks through the traced
 * executor with nothing else running, require identical kernel-counter
 * deltas, and cross-check the encoder region time against timing
 * code().encode on the same rows. Exits 1 when counts do not repeat.
 */
WorkCounts
calibrate(const Workload &w, ProtocolKind kind, uint64_t id_base)
{
    using namespace bzk;
    WorkCounts wc;
    std::vector<ff::KernelCounters> deltas; // per task, reported fields
    TracedExecutor exec;
    for (uint64_t j = 0; j < 3; ++j) {
        net::Submit s;
        s.task_id = id_base + j;
        s.n_vars = w.n_vars;
        s.seed = kEncoderSeed;
        s.kind = kind;
        auto before = ff::kernelCounters();
        exec.execute(s);
        auto after = ff::kernelCounters();
        ff::KernelCounters delta;
        for (const auto &[name, field] : reportedKernels())
            delta.*field = after.*field - before.*field;
        deltas.push_back(delta);
        if (j != 1)
            continue;
        // Cross-check (on a warm task): encode the same 3k rows
        // directly.
        Rng rng = taskInstanceRng(s.task_id, s.seed, s.n_vars);
        auto tables = kind == ProtocolKind::HighDegreeGate
                          ? highDegreeInstance<Fr>(s.n_vars, rng)
                          : randomInstance(s.n_vars, rng);
        Snark<Fr> snark(s.n_vars, s.seed, kColumnOpenings);
        const auto &pcs = snark.pcs();
        size_t k = size_t{1} << pcs.rowVars();
        size_t m = size_t{1} << pcs.colVars();
        double t0 = nowMs();
        for (const auto *table : {&tables.a, &tables.b, &tables.c})
            for (size_t row = 0; row < k; ++row)
                pcs.code().encode(
                    std::span<const Fr>(table->data() + row * m, m));
        double direct = nowMs() - t0;
        double region = exec.times(s.task_id)->encoder_ms;
        std::printf("calibrate   : %s encoder region %.3f ms vs direct "
                    "code().encode %.3f ms (ratio %.3f)\n",
                    sched::protocolKindName(kind), region, direct,
                    direct > 0 ? region / direct : 0.0);
        wc.encoder_rows = static_cast<double>(3 * k);
        double leaf_blocks = static_cast<double>((32 * k + 8) / 64 + 1);
        wc.sha256_compressions =
            3.0 * (2.0 * m * leaf_blocks + (2.0 * m - 1.0));
    }
    for (const auto &[name, field] : reportedKernels()) {
        if (deltas[0].*field != deltas[1].*field ||
            deltas[0].*field != deltas[2].*field) {
            std::fprintf(stderr,
                         "FAILED: %s differs between %s proofs of one "
                         "size\n",
                         name, sched::protocolKindName(kind));
            std::exit(1);
        }
    }
    wc.kernels = deltas[0];
    return wc;
}

/** One in-process server phase; returns the driven load. */
LoadResult
inProcessPhase(const Workload &w, bzk::net::ProofExecutor &executor,
               TaskStream &stream, const Verifier &verifier,
               double seconds, bool keep_proofs,
               bzk::net::ServerStats *stats_out)
{
    bzk::net::ServerOptions opt;
    opt.workers = kWorkers;
    opt.max_n_vars = kMaxNVars;
    bzk::net::ProofServer server(opt, executor);
    if (!server.start()) {
        std::fprintf(stderr, "cannot start the in-process server\n");
        std::exit(1);
    }
    std::vector<Conn> conns;
    for (size_t i = 0; i < w.connections; ++i) {
        auto c = connectHandshake(server.port());
        if (!c) {
            std::fprintf(stderr, "handshake with the server failed\n");
            std::exit(1);
        }
        conns.push_back(std::move(*c));
    }
    LoadDriver driver(w, stream, verifier, conns, keep_proofs);
    LoadResult r = driver.run(seconds);
    conns.clear();
    server.stop();
    if (stats_out)
        *stats_out = server.stats();
    return r;
}

/**
 * Re-prove every traced task with the shipped net::SnarkExecutor and
 * compare bytes. Returns the number of mismatches.
 */
size_t
checkBitIdentity(const LoadResult &r)
{
    std::vector<const TaskRecord *> todo;
    for (const TaskRecord &t : r.tasks)
        if (t.outcome == Outcome::Verified)
            todo.push_back(&t);
    std::atomic<size_t> next{0}, mismatches{0};
    auto worker = [&] {
        bzk::net::SnarkExecutor reference;
        for (size_t i = next++; i < todo.size(); i = next++)
            if (reference.execute(todo[i]->submit) != todo[i]->proof)
                ++mismatches;
    };
    std::vector<std::thread> pool;
    size_t threads = std::max<size_t>(
        1, std::min<size_t>(3, std::thread::hardware_concurrency()));
    for (size_t i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    std::printf("bit-identity: %zu traced proofs re-proved with "
                "SnarkExecutor, %zu mismatches\n",
                todo.size(), mismatches.load());
    return mismatches.load();
}

int
runTraced(const Args &args, const Workload &w)
{
    TaskStream stream(w, args.seed);
    Verifier verifier(w.n_vars);

    // Exact work counts per kind, mixed in the workload's proportion.
    std::vector<ProtocolKind> kinds;
    if (w.mixed)
        kinds = {ProtocolKind::TableCommit, ProtocolKind::HighDegreeGate};
    else
        kinds = {w.kind};
    std::map<std::string, double> counts;
    for (size_t i = 0; i < kinds.size(); ++i) {
        WorkCounts wc = calibrate(w, kinds[i],
                                  stream.reservedIdBase() + 16 * i);
        double share = 1.0 / static_cast<double>(kinds.size());
        for (const auto &[name, field] : reportedKernels())
            counts[name] += share * static_cast<double>(wc.kernels.*field);
        counts["encoder.rows_per_proof"] += share * wc.encoder_rows;
        counts["hash.sha256_compressions_per_proof"] +=
            share * wc.sha256_compressions;
    }

    // Phase A (untraced baseline) and phase B (traced), half each.
    double half = args.seconds / 2;
    bzk::net::SnarkExecutor plain;
    LoadResult base = inProcessPhase(w, plain, stream, verifier, half,
                                     false, nullptr);
    TracedExecutor traced;
    bzk::net::ServerStats stats;
    LoadResult r = inProcessPhase(w, traced, stream, verifier, half,
                                  true, &stats);
    Accounting a_base = account(base, w);
    Accounting a = account(r, w);
    printAccounting(a);
    size_t mismatches = checkBitIdentity(r);

    // Spans, self times, per-layer samples.
    bzk::obs::TraceRecorder recorder;
    std::map<std::string, std::vector<double>> per_layer;
    std::map<std::string, double> self_sum;
    double latency_sum = 0, root_self_sum = 0;
    double encoder_sum = 0, merkle_sum = 0;
    std::vector<double> deser, verify, bytes;
    for (const TaskRecord &t : r.tasks) {
        if (!t.measured || t.outcome != Outcome::Verified)
            continue;
        auto e = traced.times(t.submit.task_id);
        if (!e) {
            std::fprintf(stderr, "FAILED: task %llu has no executor "
                                 "timestamps\n",
                         static_cast<unsigned long long>(t.submit.task_id));
            return 1;
        }
        auto spans = taskSpans(t, *e);
        auto self = selfTimes(spans);
        std::string track =
            "task " + std::to_string(t.submit.task_id) + " " +
            bzk::sched::protocolKindName(t.submit.kind);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &sp = spans[i];
            per_layer[sp.layer].push_back(sp.end - sp.begin);
            if (i != 0)
                self_sum[sp.layer] += self[i];
            std::string category = sp.layer.substr(0, sp.layer.find('.'));
            recorder.span(track, sp.layer, category, sp.begin - r.begin,
                          sp.end - r.begin);
        }
        per_layer["encoder.encode"].push_back(e->encoder_ms);
        per_layer["merkle.hash"].push_back(e->merkle_ms);
        bytes.push_back(static_cast<double>(t.proof_bytes));
        latency_sum += spans[0].end - spans[0].begin;
        root_self_sum += self[0];
        encoder_sum += e->encoder_ms;
        merkle_sum += e->merkle_ms;
    }
    std::string trace_path = args.out_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    {
        std::ofstream f(trace_path);
        f << recorder.chromeTraceJson();
    }

    double unattributed = latency_sum > 0 ? root_self_sum / latency_sum : 1;
    auto p50 = [&](const std::string &layer) {
        return quantile(per_layer[layer], 0.5);
    };
    auto share = [&](double sum) {
        return latency_sum > 0 ? sum / latency_sum : 0.0;
    };
    double base_p50 = quantile(a_base.latencies, 0.5);
    double traced_p50 = quantile(a.latencies, 0.5);

    std::printf("traced      : %zu tasks, %zu spans -> %s\n",
                a.latencies.size(), recorder.spans().size(),
                trace_path.c_str());
    std::printf("self-time share of client latency:");
    for (const auto &[layer, sum] : self_sum)
        std::printf(" %s %.4f;", layer.c_str(), share(sum));
    std::printf(" (encoder %.4f, merkle %.4f inside core.commit)\n",
                share(encoder_sum), share(merkle_sum));
    const char *prover_spans[] = {"core.instance", "encoder.encode",
                                  "merkle.hash", "core.fiat_shamir",
                                  "sumcheck.prove", "core.open",
                                  "core.serialize"};
    std::string largest;
    for (const char *layer : prover_spans)
        if (largest.empty() || p50(layer) > p50(largest))
            largest = layer;
    std::printf("largest prover span (p50): %s\n", largest.c_str());

    Report rep;
    const char *timed[][2] = {
        {"core.instance_ms", "core.instance"},
        {"core.commit_ms", "core.commit"},
        {"encoder.encode_ms", "encoder.encode"},
        {"merkle.hash_ms", "merkle.hash"},
        {"core.fiat_shamir_ms", "core.fiat_shamir"},
        {"sumcheck.prove_ms", "sumcheck.prove"},
        {"core.open_ms", "core.open"},
        {"core.serialize_ms", "core.serialize"},
        {"core.deserialize_ms", "core.deserialize"},
        {"core.verify_ms", "core.verify"},
        {"exec.execute_ms", "exec.execute"},
        {"net.to_worker_ms", "net.to_worker"},
        {"net.from_worker_ms", "net.from_worker"},
    };
    std::string n = std::to_string(a.latencies.size());
    for (auto &[metric, layer] : timed) {
        char p90[64];
        std::snprintf(p90, sizeof p90, "; p90 %.3f ms)",
                      quantile(per_layer[layer], 0.9));
        rep.add(metric, p50(layer), "ms", "(p50, n=" + n + p90);
    }
    rep.add("core.proof_bytes", quantile(bytes, 0.5), "bytes",
            "(p50, n=" + n + ")");
    double results =
        static_cast<double>(std::max<uint64_t>(1, stats.results_ok));
    rep.add("net.peak_queue_depth", double(stats.peak_queue_depth), "count",
            "(ProofServer::stats)");
    rep.add("net.sheds", double(stats.sheds), "count");
    rep.add("net.retries", double(stats.retries), "count");
    rep.add("net.bytes_tx_per_proof", double(stats.bytes_tx) / results,
            "bytes");
    for (const auto &[name, value] : counts)
        rep.add(name, value, "count",
                name.rfind("ff.", 0) == 0
                    ? "(exact; kernelCounters delta)"
                    : "(computed from TensorPcs geometry)");
    rep.add("trace.share_encoder", share(encoder_sum), "fraction");
    rep.add("trace.share_merkle", share(merkle_sum), "fraction");
    rep.add("trace.share_sumcheck", share(self_sum["sumcheck.prove"]),
            "fraction");
    rep.add("trace.share_net_verify",
            share(self_sum["net.to_worker"] + self_sum["net.from_worker"] +
                  self_sum["core.deserialize"] + self_sum["core.verify"]),
            "fraction");
    rep.add("trace.unattributed_fraction", unattributed, "fraction");
    rep.add("trace.overhead_fraction",
            base_p50 > 0 ? traced_p50 / base_p50 - 1.0 : 0.0, "fraction",
            "(traced vs untraced in-process p50 latency)");

    bool coverage_ok = 1.0 - unattributed >= kMinCoverage;
    if (!coverage_ok)
        std::fprintf(stderr, "FAILED: spans cover %.4f of client latency "
                             "(need %.2f)\n",
                     1.0 - unattributed, kMinCoverage);
    if (mismatches)
        std::fprintf(stderr, "FAILED: %zu traced proofs differ from "
                             "SnarkExecutor's\n",
                     mismatches);
    bool correct = !a.broken && !a_base.broken && mismatches == 0 &&
                   coverage_ok;
    rep.print(correct, a.attempted, a.attempted - a.verified);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    auto w = workloadByName(args.workload);
    if (!w) {
        std::string known;
        for (const auto &n : workloadNames())
            known += " " + n;
        usage(("unknown workload '" + args.workload + "'; known:" + known)
                  .c_str());
    }
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    if (args.trace == 0 && args.batchzk.empty())
        usage("--trace 0 needs --batchzk PATH");
    printHeader(args, *w);
    // Host steal time is printed, not gated: it tells a reader whether
    // other tenants of the machine took CPU during the run.
    auto [steal0, total0] = hostCpuJiffies();
    int rc = args.trace ? runTraced(args, *w) : runEndToEnd(args, *w);
    auto [steal1, total1] = hostCpuJiffies();
    std::fprintf(stderr, "host: %.2f%% of vCPU time stolen during the run\n",
                 total1 > total0
                     ? 100.0 * (steal1 - steal0) / (total1 - total0)
                     : 0.0);
    return rc;
}
