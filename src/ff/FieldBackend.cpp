/**
 * @file
 * Backend resolution (CPUID, env override, test forcing), kernel call
 * counters, the portable scalar kernel table, and the Goldilocks
 * specializations that route the public packed API through whichever
 * table is active.
 */

#include "ff/FieldBackend.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "ff/GoldilocksKernels.h"
#include "ff/WideKernels.h"
#include "util/Log.h"

namespace bzk::ff {

namespace detail {
namespace {

std::atomic<uint64_t>
    g_counters[static_cast<size_t>(Kernel::kCount_)] = {};

} // namespace

void
countKernel(Kernel kernel, uint64_t n)
{
    g_counters[static_cast<size_t>(kernel)].fetch_add(
        n, std::memory_order_relaxed);
}

namespace {

void
scalarAdd(const uint64_t *a, const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = glAdd(a[i], b[i]);
}

void
scalarSub(const uint64_t *a, const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = glSub(a[i], b[i]);
}

void
scalarMul(const uint64_t *a, const uint64_t *b, uint64_t *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = glMul(a[i], b[i]);
}

void
scalarFold(uint64_t *lo, const uint64_t *hi, uint64_t r, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        lo[i] = glAdd(lo[i], glMul(r, glSub(hi[i], lo[i])));
}

void
scalarAxpy(uint64_t *acc, const uint64_t *x, uint64_t s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] = glAdd(acc[i], glMul(s, x[i]));
}

uint64_t
scalarSum(const uint64_t *a, size_t n)
{
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i)
        acc = glAdd(acc, a[i]);
    return acc;
}

uint64_t
scalarDot(const uint64_t *a, const uint64_t *b, size_t n)
{
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i)
        acc = glAdd(acc, glMul(a[i], b[i]));
    return acc;
}

} // namespace

const GlKernelTable &
glScalarKernels()
{
    static const GlKernelTable table{scalarAdd, scalarSub, scalarMul,
                                     scalarFold, scalarAxpy, scalarSum,
                                     scalarDot};
    return table;
}

} // namespace detail

namespace {

// -1 = unresolved; otherwise a Backend value. forceBackend stores
// directly; the first activeBackend() call resolves env then CPUID.
std::atomic<int> g_active{-1};

Backend
parseBackendName(const char *name)
{
    if (std::strcmp(name, "scalar") == 0)
        return Backend::kScalar;
    if (std::strcmp(name, "avx2") == 0)
        return Backend::kAvx2;
    if (std::strcmp(name, "avx512") == 0)
        return Backend::kAvx512;
    if (std::strcmp(name, "neon") == 0)
        return Backend::kNeon;
    fatal("BZK_FIELD_BACKEND: unknown backend '%s' "
          "(want scalar|avx2|avx512|neon)",
          name);
}

Backend
resolveBackend()
{
    if (const char *env = std::getenv("BZK_FIELD_BACKEND");
        env && *env) {
        Backend requested = parseBackendName(env);
        if (!backendAvailable(requested))
            fatal("BZK_FIELD_BACKEND=%s requested but this host does "
                  "not support it",
                  env);
        return requested;
    }
    return detectBackend();
}

const detail::GlKernelTable &
tableFor(Backend backend)
{
    switch (backend) {
#if defined(__x86_64__) || defined(_M_X64)
      case Backend::kAvx2:
        return detail::glAvx2Kernels();
      case Backend::kAvx512:
        return detail::glAvx512Kernels();
#endif
#if defined(__aarch64__)
      case Backend::kNeon:
        return detail::glNeonKernels();
#endif
      default:
        return detail::glScalarKernels();
    }
}

/** The active table; resolves and caches the backend on first use. */
const detail::GlKernelTable &
activeTable()
{
    return tableFor(activeBackend());
}

static_assert(sizeof(Goldilocks) == sizeof(uint64_t),
              "packed kernels view Goldilocks arrays as limb arrays");

const uint64_t *
limbs(const Goldilocks *p)
{
    return reinterpret_cast<const uint64_t *>(p);
}

uint64_t *
limbs(Goldilocks *p)
{
    return reinterpret_cast<uint64_t *>(p);
}

// Wide-field (4x64-limb Montgomery) dispatch state. -1 = unresolved;
// 0/1 = IFMA disabled/enabled. forceWideIfma stores directly; the
// first wideIfmaEnabled() call resolves BZK_FIELD_IFMA then CPUID.
std::atomic<int> g_ifma{-1};

int
resolveIfma()
{
    if (const char *env = std::getenv("BZK_FIELD_IFMA"); env && *env) {
        if (std::strcmp(env, "0") == 0)
            return 0;
        if (std::strcmp(env, "1") == 0) {
            if (!wideIfmaAvailable())
                fatal("BZK_FIELD_IFMA=1 requested but this host has "
                      "no AVX-512 IFMA");
            return 1;
        }
        fatal("BZK_FIELD_IFMA: unknown value '%s' (want 0|1)", env);
    }
    return wideIfmaAvailable() ? 1 : 0;
}

static_assert(sizeof(Fp<Bn254FrParams>) == 4 * sizeof(uint64_t) &&
                  sizeof(Fp<Bn254FqParams>) == 4 * sizeof(uint64_t),
              "wide kernels view Fp arrays as 4-limb arrays");

template <typename P>
const uint64_t *
limbs(const Fp<P> *p)
{
    return reinterpret_cast<const uint64_t *>(p);
}

template <typename P>
uint64_t *
limbs(Fp<P> *p)
{
    return reinterpret_cast<uint64_t *>(p);
}

/** The per-field runtime constants the wide kernel tables consume. */
template <typename P>
const detail::WideFieldConstants &
wideConstants()
{
    using F = Fp<P>;
    static constexpr detail::WideFieldConstants c =
        detail::makeWideConstants(
            F::kModulus.limb[0], F::kModulus.limb[1],
            F::kModulus.limb[2], F::kModulus.limb[3], F::kInv);
    return c;
}

/** The wide table matching the active backend and IFMA state. */
const detail::WideKernelTable &
activeWideTable()
{
#if defined(__x86_64__) || defined(_M_X64)
    switch (activeWideBackend()) {
      case WideBackend::kIfma:
        return detail::wideIfmaKernels();
      case WideBackend::kAvx2:
        return detail::wideAvx2Kernels();
      default:
        break;
    }
#endif
    return detail::wideScalarKernels();
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return "scalar";
      case Backend::kAvx2:
        return "avx2";
      case Backend::kAvx512:
        return "avx512";
      case Backend::kNeon:
        return "neon";
    }
    return "unknown";
}

bool
backendAvailable(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return true;
#if defined(__x86_64__) || defined(_M_X64)
      case Backend::kAvx2:
        return __builtin_cpu_supports("avx2");
      case Backend::kAvx512:
        return __builtin_cpu_supports("avx512f");
#endif
#if defined(__aarch64__)
      case Backend::kNeon:
        return true;
#endif
      default:
        return false;
    }
}

Backend
detectBackend()
{
    if (backendAvailable(Backend::kAvx512))
        return Backend::kAvx512;
    if (backendAvailable(Backend::kAvx2))
        return Backend::kAvx2;
    if (backendAvailable(Backend::kNeon))
        return Backend::kNeon;
    return Backend::kScalar;
}

Backend
activeBackend()
{
    int cached = g_active.load(std::memory_order_acquire);
    if (cached >= 0)
        return static_cast<Backend>(cached);
    Backend resolved = resolveBackend();
    int expected = -1;
    g_active.compare_exchange_strong(expected,
                                     static_cast<int>(resolved),
                                     std::memory_order_acq_rel);
    // On a lost race another thread resolved the same way (resolution
    // is deterministic), so either value is correct.
    return resolved;
}

void
forceBackend(Backend backend)
{
    if (!backendAvailable(backend))
        fatal("forceBackend: %s unavailable on this host",
              backendName(backend));
    g_active.store(static_cast<int>(backend),
                   std::memory_order_release);
}

void
clearForcedBackend()
{
    g_active.store(-1, std::memory_order_release);
}

size_t
backendLanes(Backend backend)
{
    switch (backend) {
      case Backend::kAvx2:
        return 4;
      case Backend::kAvx512:
        return 8;
      case Backend::kNeon:
        return 2;
      default:
        return 1;
    }
}

const char *
wideBackendName(WideBackend backend)
{
    switch (backend) {
      case WideBackend::kScalar:
        return "scalar";
      case WideBackend::kAvx2:
        return "avx2";
      case WideBackend::kIfma:
        return "ifma";
    }
    return "unknown";
}

size_t
wideBackendLanes(WideBackend backend)
{
    switch (backend) {
      case WideBackend::kAvx2:
        return 4;
      case WideBackend::kIfma:
        return 8;
      default:
        return 1;
    }
}

bool
wideIfmaAvailable()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx512ifma");
#else
    return false;
#endif
}

bool
wideIfmaEnabled()
{
    int cached = g_ifma.load(std::memory_order_acquire);
    if (cached >= 0)
        return cached != 0;
    int resolved = resolveIfma();
    int expected = -1;
    g_ifma.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel);
    // On a lost race another thread resolved the same way (resolution
    // is deterministic), so either value is correct.
    return resolved != 0;
}

void
forceWideIfma(int mode)
{
    if (mode > 0 && !wideIfmaAvailable())
        fatal("forceWideIfma: AVX-512 IFMA unavailable on this host");
    g_ifma.store(mode < 0 ? -1 : (mode > 0 ? 1 : 0),
                 std::memory_order_release);
}

WideBackend
activeWideBackend()
{
    switch (activeBackend()) {
      case Backend::kAvx512:
        // Without vpmadd52 the 4-way radix-64 CIOS table is the best
        // available: AVX-512F implies AVX2, and the carry-chain code
        // gains nothing from 512-bit lanes (docs/PERFORMANCE.md).
        return wideIfmaEnabled() ? WideBackend::kIfma
                                 : WideBackend::kAvx2;
      case Backend::kAvx2:
        return WideBackend::kAvx2;
      default:
        // NEON has no wide table yet: a 2-way 4x64 carry chain was
        // measured no better than scalar and there is no aarch64
        // toolchain in CI to keep it honest. Scalar is exact.
        return WideBackend::kScalar;
    }
}

KernelCounters
kernelCounters()
{
    using detail::Kernel;
    auto load = [](Kernel k) {
        return detail::g_counters[static_cast<size_t>(k)].load(
            std::memory_order_relaxed);
    };
    KernelCounters c;
    c.add_lanes = load(Kernel::kAdd);
    c.sub_lanes = load(Kernel::kSub);
    c.mul_lanes = load(Kernel::kMul);
    c.fold_lanes = load(Kernel::kFold);
    c.axpy_lanes = load(Kernel::kAxpy);
    c.sum_lanes = load(Kernel::kSum);
    c.dot_lanes = load(Kernel::kDot);
    c.batch_inverse = load(Kernel::kBatchInverse);
    c.wide_add_lanes = load(Kernel::kWideAdd);
    c.wide_sub_lanes = load(Kernel::kWideSub);
    c.wide_mul_lanes = load(Kernel::kWideMul);
    c.wide_fold_lanes = load(Kernel::kWideFold);
    c.wide_axpy_lanes = load(Kernel::kWideAxpy);
    c.wide_sum_lanes = load(Kernel::kWideSum);
    c.wide_dot_lanes = load(Kernel::kWideDot);
    c.wide_batch_inverse = load(Kernel::kWideBatchInverse);
    c.u32_dot_rows = load(Kernel::kU32DotRows);
    return c;
}

void
resetKernelCounters()
{
    for (auto &counter : detail::g_counters)
        counter.store(0, std::memory_order_relaxed);
}

template <>
void
addLanes<Goldilocks>(const Goldilocks *a, const Goldilocks *b,
                     Goldilocks *out, size_t n)
{
    detail::countKernel(detail::Kernel::kAdd);
    activeTable().add(limbs(a), limbs(b), limbs(out), n);
}

template <>
void
subLanes<Goldilocks>(const Goldilocks *a, const Goldilocks *b,
                     Goldilocks *out, size_t n)
{
    detail::countKernel(detail::Kernel::kSub);
    activeTable().sub(limbs(a), limbs(b), limbs(out), n);
}

template <>
void
mulLanes<Goldilocks>(const Goldilocks *a, const Goldilocks *b,
                     Goldilocks *out, size_t n)
{
    detail::countKernel(detail::Kernel::kMul);
    activeTable().mul(limbs(a), limbs(b), limbs(out), n);
}

template <>
void
foldLanes<Goldilocks>(Goldilocks *lo, const Goldilocks *hi,
                      const Goldilocks &r, size_t n)
{
    detail::countKernel(detail::Kernel::kFold);
    activeTable().fold(limbs(lo), limbs(hi), r.toUint(), n);
}

template <>
void
axpyLanes<Goldilocks>(Goldilocks *acc, const Goldilocks *x,
                      const Goldilocks &s, size_t n)
{
    detail::countKernel(detail::Kernel::kAxpy);
    activeTable().axpy(limbs(acc), limbs(x), s.toUint(), n);
}

template <>
Goldilocks
sumLanes<Goldilocks>(const Goldilocks *a, size_t n)
{
    detail::countKernel(detail::Kernel::kSum);
    return Goldilocks::fromRaw(activeTable().sum(limbs(a), n));
}

template <>
Goldilocks
dotLanes<Goldilocks>(const Goldilocks *a, const Goldilocks *b, size_t n)
{
    detail::countKernel(detail::Kernel::kDot);
    return Goldilocks::fromRaw(activeTable().dot(limbs(a), limbs(b), n));
}

// ---- Wide-field (BN254 Fr/Fq) specializations. The kernels operate
// ---- on the raw Montgomery limb view; reading the result back
// ---- through Fp is safe because every kernel output is canonical.

namespace {

template <typename P>
void
wideAddLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideAdd);
    activeWideTable().add(wideConstants<P>(), limbs(a), limbs(b),
                          limbs(out), n);
}

template <typename P>
void
wideSubLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideSub);
    activeWideTable().sub(wideConstants<P>(), limbs(a), limbs(b),
                          limbs(out), n);
}

template <typename P>
void
wideMulLanes(const Fp<P> *a, const Fp<P> *b, Fp<P> *out, size_t n)
{
    detail::countKernel(detail::Kernel::kWideMul);
    activeWideTable().mul(wideConstants<P>(), limbs(a), limbs(b),
                          limbs(out), n);
}

template <typename P>
void
wideFoldLanes(Fp<P> *lo, const Fp<P> *hi, const Fp<P> &r, size_t n)
{
    detail::countKernel(detail::Kernel::kWideFold);
    activeWideTable().fold(wideConstants<P>(), limbs(lo), limbs(hi),
                           limbs(&r), n);
}

template <typename P>
void
wideAxpyLanes(Fp<P> *acc, const Fp<P> *x, const Fp<P> &s, size_t n)
{
    detail::countKernel(detail::Kernel::kWideAxpy);
    activeWideTable().axpy(wideConstants<P>(), limbs(acc), limbs(x),
                           limbs(&s), n);
}

template <typename P>
Fp<P>
wideSumLanes(const Fp<P> *a, size_t n)
{
    detail::countKernel(detail::Kernel::kWideSum);
    Fp<P> out;
    activeWideTable().sum(wideConstants<P>(), limbs(a), n,
                          limbs(&out));
    return out;
}

template <typename P>
Fp<P>
wideDotLanes(const Fp<P> *a, const Fp<P> *b, size_t n)
{
    detail::countKernel(detail::Kernel::kWideDot);
    Fp<P> out;
    activeWideTable().dot(wideConstants<P>(), limbs(a), limbs(b), n,
                          limbs(&out));
    return out;
}

} // namespace

template <>
void
addLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideAddLanes(a, b, out, n);
}

template <>
void
subLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideSubLanes(a, b, out, n);
}

template <>
void
mulLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, Bn254Fr *out,
                  size_t n)
{
    wideMulLanes(a, b, out, n);
}

template <>
void
foldLanes<Bn254Fr>(Bn254Fr *lo, const Bn254Fr *hi, const Bn254Fr &r,
                   size_t n)
{
    wideFoldLanes(lo, hi, r, n);
}

template <>
void
axpyLanes<Bn254Fr>(Bn254Fr *acc, const Bn254Fr *x, const Bn254Fr &s,
                   size_t n)
{
    wideAxpyLanes(acc, x, s, n);
}

template <>
Bn254Fr
sumLanes<Bn254Fr>(const Bn254Fr *a, size_t n)
{
    return wideSumLanes(a, n);
}

template <>
Bn254Fr
dotLanes<Bn254Fr>(const Bn254Fr *a, const Bn254Fr *b, size_t n)
{
    return wideDotLanes(a, b, n);
}

template <>
void
addLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideAddLanes(a, b, out, n);
}

template <>
void
subLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideSubLanes(a, b, out, n);
}

template <>
void
mulLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, Bn254Fq *out,
                  size_t n)
{
    wideMulLanes(a, b, out, n);
}

template <>
void
foldLanes<Bn254Fq>(Bn254Fq *lo, const Bn254Fq *hi, const Bn254Fq &r,
                   size_t n)
{
    wideFoldLanes(lo, hi, r, n);
}

template <>
void
axpyLanes<Bn254Fq>(Bn254Fq *acc, const Bn254Fq *x, const Bn254Fq &s,
                   size_t n)
{
    wideAxpyLanes(acc, x, s, n);
}

template <>
Bn254Fq
sumLanes<Bn254Fq>(const Bn254Fq *a, size_t n)
{
    return wideSumLanes(a, n);
}

template <>
Bn254Fq
dotLanes<Bn254Fq>(const Bn254Fq *a, const Bn254Fq *b, size_t n)
{
    return wideDotLanes(a, b, n);
}

} // namespace bzk::ff
