// orc-lint: project-specific static checker for reclamation discipline.
//
// OrcGC's safety story is "automatic by construction" — but only if client
// and engine code obey the usage discipline the paper's proofs assume. This
// tool walks the source tree and mechanically enforces the rules that code
// review keeps missing (token/line level on purpose: no libclang dependency,
// runs in milliseconds as a ctest on every build):
//
//   R1  every std::atomic load/store/RMW in src/core/ and src/reclamation/
//       must name an explicit memory_order — an implicit seq_cst reads as
//       "the author did not think about ordering", which in reclamation code
//       is indistinguishable from a bug.
//   R2  no raw new/delete/malloc/free in src/ds/orc/ — OrcGC structures
//       allocate through make_orc<T>() and free through retire; a stray
//       delete bypasses the hazard scan and is a use-after-free factory.
//   R3  a pointer produced by the marked_ptr.hpp bit-stealing helpers
//       (get_marked / get_flagged) must pass through get_unmarked before it
//       is dereferenced — dereferencing a marked address is misaligned UB.
//   R4  per-thread arrays indexed by tid (declared [kMaxThreads]) must be
//       CachelinePadded (or a type locally declared alignas(kCacheLineSize))
//       so thread i's writes never invalidate the line thread j spins on.
//   R5  in src/ds/orc/, a raw pointer escaped from an orc_ptr (via .get() or
//       load_unsafe()) may be compared and CASed but never dereferenced —
//       dereference must go through the orc_ptr, whose lifetime is the
//       protection scope.
//   R6  no heap allocation (new/malloc/...) in src/core/ engine files other
//       than make_orc.hpp — retire() runs on every reclamation and must be
//       allocation-free; scratch state lives in grown-once thread-local
//       buffers. `delete` stays legal: it IS the reclamation free.
//   R7  outside src/core/, no direct OrcEngine::instance() — the singleton
//       is a compatibility façade over OrcDomain::global(); client code that
//       grabs it bypasses the domain a structure is bound to and silently
//       pins everything to the global domain. Bind an OrcDomain (or use
//       OrcDomain::global() explicitly when the global domain is meant).
//   R8  in src/core/ and src/reclamation/, no ad-hoc std::atomic counters
//       (integral atomics whose name says count/counter/total/stat/num) —
//       metrics belong in the telemetry layer (telemetry::PerThreadCounters,
//       SchemeMetrics, OrcMetrics), which pads per-thread, aggregates on
//       read, and exports through the one registry. A stray shared counter
//       is both a false-sharing hazard and an invisible metric. The layer
//       itself (orc_metrics.hpp) is exempt.
//   R9  the asymmetric-fence discipline (src/common/asym_fence.hpp) is the
//       ONE place allowed to touch the membarrier syscall or to decide
//       publish strength. Two sub-checks: (a) everywhere except
//       asym_fence.{hpp,cpp}, no `membarrier`/`syscall` tokens — a second
//       registration site or a raw barrier bypasses the mode resolver and
//       its TSan/fallback degradations; (b) in src/core/ and
//       src/reclamation/, no seq_cst .store()/.exchange() whose receiver
//       names a protection slot (hp/he/guard/res/upper/lower/...) — slot
//       publication goes through asym::publish(), which picks the per-mode
//       strength; a hand-rolled seq_cst publish silently reverts that slot
//       to the pre-asymmetric cost model. Handover/link exchanges are not
//       publishes and stay seq_cst.
//   R10 no raw delete/free/::operator delete of an orc_base-derived object
//       anywhere except src/core/orc_domain.hpp — OrcDomain::destroy() is
//       the single sanctioned free path (it is where the hazard scan, the
//       handover protocol and OrcSan's quarantine diversion live); a rogue
//       free bypasses all three and is the exact bug class OrcSan's shadow
//       machine exists to catch at runtime.
//   R11 no raw std::thread in src/core/ or src/reclamation/ — the engine
//       reclaims on the retiring threads only. A spawned thread registers a
//       dense tid and would have to be joined before a domain's
//       destruction-to-quiescence protocol runs (and never while holding
//       the registry mutex its exit hook needs): a lifecycle the domain
//       destructor does not know about.
//   R12 scheme files in src/reclamation/ ride the shared substrate
//       (scheme_base.hpp): no raw `...[kMaxThreads]` slot-array
//       declarations, no ad-hoc retire-list vectors (std::vector declarators
//       named retired/bag/limbo/...), and no direct telemetry::SchemeMetrics
//       ownership. Each re-forks state SchemeBase exists to own exactly
//       once — and silently escapes the substrate's audited publish/scan
//       memory-ordering contract. scheme_base.hpp itself is the one
//       sanctioned home and is exempt.
//   R13 no raw timing calls (rdtsc intrinsics, clock_gettime, gettimeofday,
//       steady_clock::now) in src/core/ or src/reclamation/ — timestamps in
//       engine/reclamation code go through telemetry::coarse_now()/now_tsc()
//       (src/common/telemetry.hpp), which pick the cheap counter per
//       platform and compile to nothing under -DORCGC_TELEMETRY=OFF. A raw
//       clock call is both an overhead-gate leak (it survives the OFF build)
//       and an incomparable unit (ages and spans must share one tick
//       domain). orc_metrics.hpp — the telemetry layer's engine half — is
//       exempt.
//
// Suppressions: append `// orc-lint: allow(R1) <reason>` to the offending
// line (or put it alone on the line above). Multiple rules:
// `allow(R1,R4) <reason>`. A bare allow() without a reason is itself an
// error — the reason is the reviewable artifact.
//
// Diagnostics: `file:line: RN: message`, one per line, exit 1 if any.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Diag {
    std::string file;
    int line = 0;
    std::string rule;
    std::string msg;

    bool operator<(const Diag& o) const {
        if (file != o.file) return file < o.file;
        if (line != o.line) return line < o.line;
        return rule < o.rule;
    }
};

struct RuleSet {
    bool r1 = false;  // core/ and reclamation/ only
    bool r2 = false;  // ds/orc/ only
    bool r3 = true;
    bool r4 = true;
    bool r5 = false;  // ds/orc/ only
    bool r6 = false;  // core/ engine files (minus make_orc.hpp)
    bool r7 = false;  // everywhere except core/ (the façade's own home)
    bool r8 = false;  // core/ and reclamation/ (minus the telemetry layer)
    bool r9a = true;  // everywhere except common/asym_fence.{hpp,cpp}
    bool r9b = false;  // core/ and reclamation/ only
    bool r10 = true;  // everywhere except core/orc_domain.hpp (the free path)
    bool r11 = false;  // core/ and reclamation/
    bool r12 = false;  // reclamation/ only (minus scheme_base.hpp, the substrate)
    bool r13 = false;  // core/ and reclamation/ (minus orc_metrics.hpp, the
                       // telemetry layer's engine half)
};

bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Blanks comments and string/char literals to spaces (newlines preserved)
/// so token scans cannot match inside them. Handles // and /* */ comments,
/// "..." and '...' with escapes, and R"delim(...)delim" raw strings.
std::string strip_comments_and_strings(const std::string& src) {
    std::string out(src);
    enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
    St st = St::kCode;
    std::string raw_close;  // e.g. )delim"
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
            case St::kCode:
                if (c == '/' && n == '/') {
                    st = St::kLineComment;
                    out[i] = ' ';
                } else if (c == '/' && n == '*') {
                    st = St::kBlockComment;
                    out[i] = ' ';
                } else if (c == 'R' && n == '"' &&
                           (i == 0 || !is_ident_char(src[i - 1]))) {
                    // Raw string: R"delim( ... )delim"
                    std::size_t p = i + 2;
                    std::string delim;
                    while (p < src.size() && src[p] != '(') delim += src[p++];
                    raw_close = ")" + delim + "\"";
                    st = St::kRawString;
                    // keep the R and opening quote blanked below on next turns
                    out[i] = ' ';
                } else if (c == '"') {
                    st = St::kString;
                    out[i] = ' ';
                } else if (c == '\'' && (i == 0 || !is_ident_char(src[i - 1]))) {
                    // Exclude digit separators (1'000'000).
                    st = St::kChar;
                    out[i] = ' ';
                }
                break;
            case St::kLineComment:
                if (c == '\n') {
                    st = St::kCode;
                } else {
                    out[i] = ' ';
                }
                break;
            case St::kBlockComment:
                if (c == '*' && n == '/') {
                    out[i] = ' ';
                    out[i + 1] = ' ';
                    ++i;
                    st = St::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::kString:
                if (c == '\\' && n != '\0') {
                    out[i] = ' ';
                    if (n != '\n') out[i + 1] = ' ';
                    ++i;
                } else if (c == '"') {
                    out[i] = ' ';
                    st = St::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::kChar:
                if (c == '\\' && n != '\0') {
                    out[i] = ' ';
                    if (n != '\n') out[i + 1] = ' ';
                    ++i;
                } else if (c == '\'') {
                    out[i] = ' ';
                    st = St::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case St::kRawString:
                if (src.compare(i, raw_close.size(), raw_close) == 0) {
                    for (std::size_t k = 0; k < raw_close.size(); ++k) out[i + k] = ' ';
                    i += raw_close.size() - 1;
                    st = St::kCode;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
        }
    }
    return out;
}

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

std::string trim(std::string_view s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
}

bool line_is_blank(const std::string& s) {
    return std::all_of(s.begin(), s.end(),
                       [](char c) { return std::isspace(static_cast<unsigned char>(c)); });
}

/// Finds the offset of the matching ')' for the '(' at `open` in `text`,
/// or npos. `text` must already be comment/string-stripped.
std::size_t match_paren(const std::string& text, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(') ++depth;
        else if (text[i] == ')' && --depth == 0) return i;
    }
    return std::string::npos;
}

class FileLinter {
  public:
    FileLinter(std::string display_path, const std::string& contents, RuleSet rules,
               std::vector<Diag>& out)
        : path_(std::move(display_path)),
          orig_(contents),
          clean_(strip_comments_and_strings(contents)),
          rules_(rules),
          diags_(out) {
        orig_lines_ = split_lines(orig_);
        clean_lines_ = split_lines(clean_);
        line_starts_.reserve(clean_lines_.size());
        std::size_t off = 0;
        for (const auto& l : clean_lines_) {
            line_starts_.push_back(off);
            off += l.size() + 1;
        }
    }

    void run() {
        parse_suppressions();
        if (rules_.r1) check_r1();
        if (rules_.r2) check_r2();
        if (rules_.r3) check_r3();
        if (rules_.r4) check_r4();
        if (rules_.r5) check_r5();
        if (rules_.r6) check_r6();
        if (rules_.r7) check_r7();
        if (rules_.r8) check_r8();
        if (rules_.r9a) check_r9a();
        if (rules_.r9b) check_r9b();
        if (rules_.r10) check_r10();
        if (rules_.r11) check_r11();
        if (rules_.r12) check_r12();
        if (rules_.r13) check_r13();
    }

  private:
    int line_of(std::size_t offset) const {
        auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
        return static_cast<int>(it - line_starts_.begin());  // 1-based
    }

    void emit(const char* rule, int line, std::string msg) {
        auto it = suppressed_.find(line);
        if (it != suppressed_.end() && it->second.count(rule) != 0) return;
        diags_.push_back({path_, line, rule, std::move(msg)});
    }

    // ---- suppression comments --------------------------------------------

    void parse_suppressions() {
        for (std::size_t li = 0; li < orig_lines_.size(); ++li) {
            const std::string& line = orig_lines_[li];
            const std::size_t tag = line.find("orc-lint:");
            if (tag == std::string::npos) continue;
            const int lineno = static_cast<int>(li) + 1;
            std::size_t p = tag + std::strlen("orc-lint:");
            while (p < line.size() && line[p] == ' ') ++p;
            if (line.compare(p, 6, "allow(") != 0) {
                emit("suppression", lineno,
                     "malformed orc-lint comment: expected 'orc-lint: allow(Rn[,Rn...]) reason'");
                continue;
            }
            const std::size_t open = p + 5;
            const std::size_t close = line.find(')', open);
            if (close == std::string::npos) {
                emit("suppression", lineno, "unterminated orc-lint allow( list");
                continue;
            }
            std::set<std::string> allowed;
            std::stringstream list(line.substr(open + 1, close - open - 1));
            std::string item;
            while (std::getline(list, item, ',')) {
                item = trim(item);
                if (!item.empty()) allowed.insert(item);
            }
            const std::string reason = trim(line.substr(close + 1));
            if (reason.empty()) {
                emit("suppression", lineno,
                     "orc-lint allow() without a reason — justify the exemption");
                continue;  // a bare allow does not suppress anything
            }
            // A comment-only line suppresses the line below; a trailing
            // comment suppresses its own line.
            const bool own_line =
                li < clean_lines_.size() && line_is_blank(clean_lines_[li]);
            const int target = own_line ? lineno + 1 : lineno;
            suppressed_[target].insert(allowed.begin(), allowed.end());
        }
    }

    // ---- R1: explicit memory_order ---------------------------------------

    void check_r1() {
        static const char* kOps[] = {"load", "store", "exchange", "fetch_add", "fetch_sub",
                                     "fetch_or", "fetch_and", "fetch_xor",
                                     "compare_exchange_strong", "compare_exchange_weak"};
        for (const char* op : kOps) {
            const std::string needle = std::string(op) + "(";
            std::size_t pos = 0;
            while ((pos = clean_.find(needle, pos)) != std::string::npos) {
                const std::size_t call = pos;
                pos += needle.size();
                // Must be a member call: preceded by '.' or '->' (this also
                // skips the definitions of identically named functions).
                if (call == 0) continue;
                const char prev = clean_[call - 1];
                const bool member =
                    prev == '.' || (prev == '>' && call >= 2 && clean_[call - 2] == '-');
                if (!member) continue;
                // `exchange(` would also match inside `compare_exchange_*(`;
                // the '.'/'->' requirement above already rejects that ('_'
                // precedes it), but keep the guard explicit.
                if (is_ident_char(prev)) continue;
                const std::size_t open = call + std::strlen(op);
                const std::size_t close = match_paren(clean_, open);
                if (close == std::string::npos) continue;
                const std::string args = clean_.substr(open + 1, close - open - 1);
                if (args.find("order") == std::string::npos) {
                    emit("R1", line_of(call),
                         std::string("atomic ") + op +
                             "() without an explicit memory_order (implicit seq_cst)");
                }
            }
        }
    }

    // ---- R2: no raw allocation in ds/orc ---------------------------------

    void check_r2() {
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const std::string t = trim(line);
            if (!t.empty() && t[0] == '#') continue;  // preprocessor (#include <new>)
            const int lineno = static_cast<int>(li) + 1;
            scan_tokens(line, [&](std::string_view tok, std::size_t col) {
                if (tok == "new") {
                    emit("R2", lineno,
                         "raw 'new' in ds/orc — allocate through make_orc<T>()");
                } else if (tok == "delete") {
                    // Skip deleted special members: `= delete`.
                    std::size_t p = col;
                    while (p > 0 && line[p - 1] == ' ') --p;
                    if (p > 0 && line[p - 1] == '=') return;
                    emit("R2", lineno,
                         "raw 'delete' in ds/orc — objects are freed by OrcGC retire");
                } else if (tok == "malloc" || tok == "calloc" || tok == "realloc" ||
                           tok == "free" || tok == "aligned_alloc") {
                    // Only calls (identifier followed by '(').
                    std::size_t p = col + tok.size();
                    while (p < line.size() && line[p] == ' ') ++p;
                    if (p < line.size() && line[p] == '(') {
                        emit("R2", lineno,
                             "raw C allocation call in ds/orc — use make_orc<T>()/retire");
                    }
                }
            });
        }
    }

    // ---- R6: no heap allocation in engine hot paths ----------------------

    void check_r6() {
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const std::string t = trim(line);
            if (!t.empty() && t[0] == '#') continue;  // preprocessor (#include <new>)
            const int lineno = static_cast<int>(li) + 1;
            scan_tokens(line, [&](std::string_view tok, std::size_t col) {
                if (tok == "new") {
                    emit("R6", lineno,
                         "heap allocation in an engine file — retire paths must be "
                         "allocation-free (allocate in make_orc.hpp or grow a "
                         "thread-local scratch buffer)");
                } else if (tok == "malloc" || tok == "calloc" || tok == "realloc" ||
                           tok == "aligned_alloc") {
                    // Only calls (identifier followed by '(').
                    std::size_t p = col + tok.size();
                    while (p < line.size() && line[p] == ' ') ++p;
                    if (p < line.size() && line[p] == '(') {
                        emit("R6", lineno,
                             "C heap allocation in an engine file — retire paths "
                             "must be allocation-free");
                    }
                }
            });
        }
    }

    // ---- R7: no singleton access outside the core façade ------------------

    void check_r7() {
        static const char kNeedle[] = "OrcEngine::instance";
        std::size_t pos = 0;
        while ((pos = clean_.find(kNeedle, pos)) != std::string::npos) {
            const std::size_t call = pos;
            pos += sizeof(kNeedle) - 1;
            if (call > 0 && (is_ident_char(clean_[call - 1]) || clean_[call - 1] == ':')) {
                continue;  // qualified differently or part of a longer name
            }
            emit("R7", line_of(call),
                 "direct OrcEngine::instance() outside src/core/ — bind an OrcDomain "
                 "(OrcDomain::global() when the default domain is meant) instead of "
                 "the compatibility singleton");
        }
    }

    // ---- R8: no ad-hoc atomic counters outside the telemetry layer --------

    /// True for template arguments naming an integral type (the only kind a
    /// hand-rolled counter uses). Pointers and user types stay clean.
    static bool integral_type_arg(const std::string& arg) {
        if (arg.find('*') != std::string::npos) return false;
        return arg.find("int") != std::string::npos ||     // int, uint64_t, ...
               arg.find("long") != std::string::npos ||
               arg.find("short") != std::string::npos ||
               arg.find("size_t") != std::string::npos ||
               arg == "unsigned" || arg == "char";
    }

    /// True if a declarator name reads as a statistic. Matches on '_'-split
    /// components so names like `state_` or `status` stay clean.
    static bool counter_ish_name(const std::string& name) {
        std::string lower;
        lower.reserve(name.size());
        for (char c : name) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        std::size_t b = 0;
        while (b <= lower.size()) {
            std::size_t e = lower.find('_', b);
            if (e == std::string::npos) e = lower.size();
            const std::string part = lower.substr(b, e - b);
            if (part.find("count") != std::string::npos ||
                part.find("total") != std::string::npos || part == "num" || part == "nums" ||
                part == "stat" || part == "stats") {
                return true;
            }
            if (e == lower.size()) break;
            b = e + 1;
        }
        return false;
    }

    void check_r8() {
        static const char kNeedle[] = "std::atomic<";
        std::size_t pos = 0;
        while ((pos = clean_.find(kNeedle, pos)) != std::string::npos) {
            const std::size_t start = pos;
            pos += sizeof(kNeedle) - 1;
            if (start > 0 && is_ident_char(clean_[start - 1])) continue;
            // Integral template arguments carry no nested '<>'.
            const std::size_t close = clean_.find('>', start);
            if (close == std::string::npos) continue;
            const std::string arg =
                trim(clean_.substr(start + sizeof(kNeedle) - 1,
                                   close - start - (sizeof(kNeedle) - 1)));
            if (!integral_type_arg(arg)) continue;
            // Declarator name right after the closing '>': absent for casts,
            // parameter types and nested templates.
            std::size_t p = close + 1;
            while (p < clean_.size() &&
                   std::isspace(static_cast<unsigned char>(clean_[p]))) ++p;
            std::size_t b = p;
            while (p < clean_.size() && is_ident_char(clean_[p])) ++p;
            if (p == b) continue;
            const std::string name = clean_.substr(b, p - b);
            if (!counter_ish_name(name)) continue;
            emit("R8", line_of(start),
                 "ad-hoc std::atomic counter '" + name +
                     "' — metrics in engine/reclamation code go through the telemetry "
                     "layer (telemetry::PerThreadCounters / SchemeMetrics / OrcMetrics)");
        }
    }

    // ---- R9a: the membarrier syscall lives in asym_fence only -------------

    void check_r9a() {
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const std::string t = trim(line);
            if (!t.empty() && t[0] == '#') continue;  // includes name syscall.h
            const int lineno = static_cast<int>(li) + 1;
            bool hit = false;  // one diagnostic per line, however many tokens
            // Exact tokens only: asym::membarrier_supported() and the
            // Mode::kMembarrier enumerator are legal API surface; reaching
            // the kernel needs the literal `syscall` (or a libc `membarrier`
            // wrapper) token somewhere.
            scan_tokens(line, [&](std::string_view tok, std::size_t /*col*/) {
                if (hit) return;
                if (tok == "syscall" || tok == "membarrier") {
                    hit = true;
                    emit("R9", lineno,
                         "raw membarrier/syscall outside src/common/asym_fence — the "
                         "fence facility owns registration, TSan degradation and the "
                         "no-syscall fallback; go through asym::heavy()");
                }
            });
        }
    }

    // ---- R9b: protection slots publish through asym::publish --------------

    /// True if a receiver identifier reads as a protection slot. Matches on
    /// '_'-split components, so `hp_local` and `new_guard` fire while
    /// `handovers` and `link_` stay clean. upper/lower are in the set
    /// because IBR's era slots are publishes too.
    static bool protection_slot_name(const std::string& name) {
        static const std::set<std::string> kSlots = {
            "hp",    "he",          "guard", "guards", "res",  "reservation",
            "upper", "lower",       "wm",    "slot",   "slots", "hazard",
            "haz",   "reservations"};
        std::string lower;
        lower.reserve(name.size());
        for (char c : name) {
            lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        std::size_t b = 0;
        while (b <= lower.size()) {
            std::size_t e = lower.find('_', b);
            if (e == std::string::npos) e = lower.size();
            if (kSlots.count(lower.substr(b, e - b)) != 0) return true;
            if (e == lower.size()) break;
            b = e + 1;
        }
        return false;
    }

    /// Receiver identifier of a member call: `sep_begin` is the offset of
    /// the '.' (or of the '-' in '->'); walks back over any `[...]` index
    /// groups, then reads the trailing identifier (`t.hp[i]` -> "hp").
    std::string receiver_name(std::size_t sep_begin) const {
        std::size_t p = sep_begin;  // first char of '.' or '->'
        while (true) {
            while (p > 0 && std::isspace(static_cast<unsigned char>(clean_[p - 1]))) --p;
            if (p > 0 && clean_[p - 1] == ']') {
                int depth = 0;
                std::size_t q = p;
                while (q > 0) {
                    --q;
                    if (clean_[q] == ']') ++depth;
                    else if (clean_[q] == '[' && --depth == 0) break;
                }
                if (depth != 0) return "";
                p = q;
                continue;
            }
            break;
        }
        std::size_t e = p;
        while (p > 0 && is_ident_char(clean_[p - 1])) --p;
        return clean_.substr(p, e - p);
    }

    void check_r9b() {
        for (const char* op : {"store", "exchange"}) {
            const std::string needle = std::string(op) + "(";
            std::size_t pos = 0;
            while ((pos = clean_.find(needle, pos)) != std::string::npos) {
                const std::size_t call = pos;
                pos += needle.size();
                if (call == 0) continue;
                const char prev = clean_[call - 1];
                // Member call only; '_' before `exchange(` (compare_exchange_*)
                // is rejected by the same test.
                const bool dot = prev == '.';
                const bool arrow = prev == '>' && call >= 2 && clean_[call - 2] == '-';
                if (!dot && !arrow) continue;
                const std::size_t open = call + std::strlen(op);
                const std::size_t close = match_paren(clean_, open);
                if (close == std::string::npos) continue;
                const std::string args = clean_.substr(open + 1, close - open - 1);
                if (args.find("memory_order_seq_cst") == std::string::npos) continue;
                const std::size_t sep = arrow ? call - 2 : call - 1;
                const std::string recv = receiver_name(sep);
                if (recv.empty() || !protection_slot_name(recv)) continue;
                emit("R9", line_of(call),
                     std::string("seq_cst ") + op + "() to protection slot '" + recv +
                         "' — publish through asym::publish() (release + scan-side "
                         "asym::heavy()), not a hand-rolled seq_cst publish");
            }
        }
    }

    // ---- R10: orc_base objects are freed only by the domain free path -----

    /// Finds the offset of the matching ')' for the '(' at `open` within a
    /// single line, or npos (line-local twin of match_paren).
    static std::size_t match_paren_line(const std::string& line, std::size_t open) {
        int depth = 0;
        for (std::size_t i = open; i < line.size(); ++i) {
            if (line[i] == '(') ++depth;
            else if (line[i] == ')' && --depth == 0) return i;
        }
        return std::string::npos;
    }

    void check_r10() {
        // Variables (locals or parameters) statically typed orc_base*. The
        // declarator scan also collects orc_base*-returning function names
        // ("base" in `orc_base* base() const`), which is fine: freeing
        // through either spelling is the same violation.
        std::set<std::string> tainted;
        static const char kType[] = "orc_base";
        std::size_t pos = 0;
        while ((pos = clean_.find(kType, pos)) != std::string::npos) {
            const std::size_t start = pos;
            pos += sizeof(kType) - 1;
            if (start > 0 && is_ident_char(clean_[start - 1])) continue;
            std::size_t p = start + sizeof(kType) - 1;
            if (p < clean_.size() && is_ident_char(clean_[p])) continue;
            while (p < clean_.size() &&
                   std::isspace(static_cast<unsigned char>(clean_[p]))) ++p;
            if (p >= clean_.size() || clean_[p] != '*') continue;
            ++p;
            while (p < clean_.size() &&
                   (std::isspace(static_cast<unsigned char>(clean_[p])) ||
                    clean_[p] == '*')) ++p;
            std::size_t b = p;
            while (p < clean_.size() && is_ident_char(clean_[p])) ++p;
            if (p > b) tainted.insert(clean_.substr(b, p - b));
        }

        // True if a free/delete operand expression names an orc_base object:
        // a tainted variable as a whole word, or an explicit orc_base cast.
        auto frees_orc_base = [&](const std::string& expr) {
            if (expr.find("orc_base") != std::string::npos) return true;
            for (const auto& var : tainted) {
                if (var_occurrence(expr, var,
                                   [](std::size_t, std::size_t) { return true; })) {
                    return true;
                }
            }
            return false;
        };

        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const int lineno = static_cast<int>(li) + 1;
            scan_tokens(line, [&](std::string_view tok, std::size_t col) {
                if (tok == "delete") {
                    // Skip deleted special members: `= delete`.
                    std::size_t q = col;
                    while (q > 0 && line[q - 1] == ' ') --q;
                    if (q > 0 && line[q - 1] == '=') return;
                    if (q >= 8 && line.compare(q - 8, 8, "operator") == 0) {
                        // ::operator delete(expr): the raw deallocation call.
                        const std::size_t open = line.find('(', col + tok.size());
                        if (open == std::string::npos) return;
                        const std::size_t close = match_paren_line(line, open);
                        if (close == std::string::npos) return;
                        if (frees_orc_base(line.substr(open + 1, close - open - 1))) {
                            emit("R10", lineno,
                                 "::operator delete of an orc_base-derived object — "
                                 "OrcGC objects are freed only by OrcDomain::destroy() "
                                 "(retire -> scan -> destroy)");
                        }
                        return;
                    }
                    // delete expr; — the operand runs to the statement end.
                    std::size_t e = line.find(';', col);
                    if (e == std::string::npos) e = line.size();
                    const std::string expr =
                        line.substr(col + tok.size(), e - col - tok.size());
                    if (frees_orc_base(expr)) {
                        emit("R10", lineno,
                             "raw 'delete' of an orc_base-derived object — OrcGC "
                             "objects are freed only by OrcDomain::destroy() "
                             "(retire -> scan -> destroy)");
                    }
                } else if (tok == "free") {
                    // Only calls (identifier followed by '(').
                    std::size_t p = col + tok.size();
                    while (p < line.size() && line[p] == ' ') ++p;
                    if (p >= line.size() || line[p] != '(') return;
                    const std::size_t close = match_paren_line(line, p);
                    if (close == std::string::npos) return;
                    if (frees_orc_base(line.substr(p + 1, close - p - 1))) {
                        emit("R10", lineno,
                             "free() of an orc_base-derived object — OrcGC objects "
                             "are freed only by OrcDomain::destroy() "
                             "(retire -> scan -> destroy)");
                    }
                }
            });
        }
    }

    // ---- R11: the engine spawns no threads --------------------------------

    void check_r11() {
        static const char kNeedle[] = "std::thread";
        std::size_t pos = 0;
        while ((pos = clean_.find(kNeedle, pos)) != std::string::npos) {
            const std::size_t start = pos;
            pos += sizeof(kNeedle) - 1;
            // Whole token: rejects this_thread/jthread-style neighbors on the
            // left and longer identifiers (std::thread_foo) on the right.
            if (start > 0 &&
                (is_ident_char(clean_[start - 1]) || clean_[start - 1] == ':')) {
                continue;
            }
            const std::size_t end = start + sizeof(kNeedle) - 1;
            if (end < clean_.size() && is_ident_char(clean_[end])) continue;
            emit("R11", line_of(start),
                 "raw std::thread in engine/reclamation code — reclamation runs "
                 "on the retiring threads; a spawned thread's tid and join "
                 "escape the domain destruction protocol");
        }
    }

    // ---- R12: scheme files ride the shared substrate ----------------------

    /// True if a declarator name reads as a retire buffer. Matches on
    /// '_'-split components so scan scratch like `hazards` or `keep` stays
    /// clean while `retired_`, `my_bag` and `limbo_list` fire.
    static bool retire_list_name(const std::string& name) {
        static const std::set<std::string> kParts = {
            "retired", "retire", "retires", "bag",  "bags",     "limbo",
            "garbage", "zombie", "zombies", "dlist", "rlist",   "graveyard"};
        std::string lower;
        lower.reserve(name.size());
        for (char c : name) {
            lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        std::size_t b = 0;
        while (b <= lower.size()) {
            std::size_t e = lower.find('_', b);
            if (e == std::string::npos) e = lower.size();
            if (kParts.count(lower.substr(b, e - b)) != 0) return true;
            if (e == lower.size()) break;
            b = e + 1;
        }
        return false;
    }

    void check_r12() {
        // (a) Raw per-thread slot arrays: the substrate owns the ONE padded
        // tl_[kMaxThreads] array; schemes key into it through my_slot().
        // Same declaration-vs-subscript discrimination as R4.
        std::size_t pos = 0;
        while ((pos = clean_.find("[kMaxThreads]", pos)) != std::string::npos) {
            const std::size_t bracket = pos;
            pos += 1;
            const int lineno = line_of(bracket);
            const std::string& line = clean_lines_[lineno - 1];
            const std::size_t col = bracket - line_starts_[lineno - 1];
            std::string before = trim(line.substr(0, col));
            std::size_t e = before.size();
            while (e > 0 && is_ident_char(before[e - 1])) --e;
            if (trim(before.substr(0, e)).empty()) continue;  // subscript expression
            emit("R12", lineno,
                 "raw per-thread slot array in a scheme file — SchemeBase owns the one "
                 "padded tl_[kMaxThreads] array; put per-thread protection words in the "
                 "scheme's State mixin and key in through my_slot()");
        }
        // (b) Ad-hoc retire-list vectors: retire buffering (and its adaptive
        // scan threshold + telemetry accounting) lives in the substrate's
        // bags, reached through buffer_retired()/sweep_retired().
        static const char kVec[] = "std::vector<";
        pos = 0;
        while ((pos = clean_.find(kVec, pos)) != std::string::npos) {
            const std::size_t start = pos;
            pos += sizeof(kVec) - 1;
            if (start > 0 && is_ident_char(clean_[start - 1])) continue;
            // Matching '>' with angle-depth so nested element types work.
            std::size_t close = std::string::npos;
            int depth = 0;
            for (std::size_t i = start + sizeof(kVec) - 2; i < clean_.size(); ++i) {
                if (clean_[i] == '<') ++depth;
                else if (clean_[i] == '>' && --depth == 0) {
                    close = i;
                    break;
                }
            }
            if (close == std::string::npos) continue;
            std::size_t p = close + 1;
            while (p < clean_.size() &&
                   std::isspace(static_cast<unsigned char>(clean_[p]))) ++p;
            std::size_t b = p;
            while (p < clean_.size() && is_ident_char(clean_[p])) ++p;
            if (p == b) continue;  // cast, parameter type, nested template
            const std::string name = clean_.substr(b, p - b);
            if (!retire_list_name(name)) continue;
            emit("R12", line_of(start),
                 "ad-hoc retire list '" + name +
                     "' — retired objects go through the substrate's bags "
                     "(SchemeBase::buffer_retired / sweep_retired), which carry the "
                     "adaptive scan threshold and the freed/unreclaimed accounting");
        }
        // (c) Direct SchemeMetrics ownership: the substrate is the provider;
        // schemes count through note_retire()/sweep_retired()/
        // note_freed_objects() so every scheme's telemetry stays uniform.
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const int lineno = static_cast<int>(li) + 1;
            bool hit = false;  // one diagnostic per line
            scan_tokens(clean_lines_[li], [&](std::string_view tok, std::size_t /*col*/) {
                if (hit || tok != "SchemeMetrics") return;
                hit = true;
                emit("R12", lineno,
                     "direct SchemeMetrics in a scheme file — SchemeBase is the metrics "
                     "provider; count through note_retire()/sweep_retired()/"
                     "note_freed_objects() instead");
            });
        }
    }

    // ---- R13: raw timing calls live in the telemetry layer only -----------

    void check_r13() {
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const std::string t = trim(line);
            if (!t.empty() && t[0] == '#') continue;  // includes name time.h
            const int lineno = static_cast<int>(li) + 1;
            bool hit = false;  // one diagnostic per line, however many tokens
            scan_tokens(line, [&](std::string_view tok, std::size_t col) {
                if (hit) return;
                // rdtsc in any spelling (rdtsc, _rdtsc, __rdtsc,
                // __builtin_ia32_rdtsc, rdtscp) plus the POSIX clock calls.
                const bool timing_token = tok.find("rdtsc") != std::string_view::npos ||
                                          tok == "clock_gettime" || tok == "gettimeofday";
                // steady_clock alone is legal API surface (time_point
                // parameters, deadline arithmetic); reading the clock needs
                // the trailing ::now.
                bool steady_now = false;
                if (tok == "steady_clock") {
                    std::size_t p = col + tok.size();
                    while (p < line.size() && line[p] == ' ') ++p;
                    if (p + 1 < line.size() && line[p] == ':' && line[p + 1] == ':') {
                        p += 2;
                        while (p < line.size() && line[p] == ' ') ++p;
                        steady_now = line.compare(p, 3, "now") == 0;
                    }
                }
                if (!timing_token && !steady_now) return;
                hit = true;
                emit("R13", lineno,
                     "raw timing call in engine/reclamation code — timestamps go "
                     "through telemetry::coarse_now()/now_tsc() (one tick domain, "
                     "compiled out under -DORCGC_TELEMETRY=OFF)");
            });
        }
    }

    template <typename Fn>
    static void scan_tokens(const std::string& line, Fn&& fn) {
        std::size_t i = 0;
        while (i < line.size()) {
            if (is_ident_char(line[i]) &&
                !std::isdigit(static_cast<unsigned char>(line[i]))) {
                std::size_t b = i;
                while (i < line.size() && is_ident_char(line[i])) ++i;
                fn(std::string_view(line).substr(b, i - b), b);
            } else {
                ++i;
            }
        }
    }

    // ---- taint tracking shared by R3 and R5 ------------------------------

    struct Taint {
        std::string var;
        int depth = 0;
        int line = 0;
    };

    /// True if `line` contains `var` as a whole word at some position for
    /// which `pred(pos_after_var)` holds.
    template <typename Pred>
    static bool var_occurrence(const std::string& line, const std::string& var, Pred&& pred) {
        std::size_t pos = 0;
        while ((pos = line.find(var, pos)) != std::string::npos) {
            const std::size_t end = pos + var.size();
            const bool word = (pos == 0 || !is_ident_char(line[pos - 1])) &&
                              (end >= line.size() || !is_ident_char(line[end]));
            if (word && pred(pos, end)) return true;
            pos = end;
        }
        return false;
    }

    static bool derefs_var(const std::string& line, const std::string& var) {
        return var_occurrence(line, var, [&](std::size_t b, std::size_t e) {
            std::size_t p = e;
            while (p < line.size() && line[p] == ' ') ++p;
            if (p + 1 < line.size() && line[p] == '-' && line[p + 1] == '>') return true;
            // Unary dereference: '*' glued to the variable name.
            if (b > 0 && line[b - 1] == '*' && (b < 2 || line[b - 2] != '*')) return true;
            return false;
        });
    }

    static bool reassigns_var(const std::string& line, const std::string& var) {
        return var_occurrence(line, var, [&](std::size_t /*b*/, std::size_t e) {
            std::size_t p = e;
            while (p < line.size() && line[p] == ' ') ++p;
            if (p >= line.size() || line[p] != '=') return false;
            if (p + 1 < line.size() && line[p + 1] == '=') return false;  // comparison
            return true;
        });
    }

    /// If `line` assigns the result of the call at `callpos` to a variable
    /// (`var = ... call(`), returns the variable name, else "".
    static std::string assigned_var(const std::string& line, std::size_t callpos) {
        const std::size_t eq = line.rfind('=', callpos);
        if (eq == std::string::npos || eq == 0) return "";
        // Reject ==, !=, <=, >=, +=, -=, |=, &=, ^= ...: only a plain '='.
        const char before = line[eq - 1];
        if (std::strchr("=!<>+-*/|&^%", before) != nullptr) return "";
        if (eq + 1 < line.size() && line[eq + 1] == '=') return "";
        // Between '=' and the call there must be no statement separator.
        const std::string between = line.substr(eq + 1, callpos - eq - 1);
        if (between.find(';') != std::string::npos) return "";
        // Variable name: identifier immediately left of '='.
        std::size_t e = eq;
        while (e > 0 && line[e - 1] == ' ') --e;
        std::size_t b = e;
        while (b > 0 && is_ident_char(line[b - 1])) --b;
        if (b == e) return "";
        return line.substr(b, e - b);
    }

    /// Runs the generic tainted-variable pass: `taint_here(line)` returns the
    /// newly tainted variable name (or ""), and any dereference of a live
    /// taint emits `rule` with `msg`.
    template <typename TaintFn>
    void taint_pass(const char* rule, const std::string& msg, TaintFn&& taint_here) {
        std::vector<Taint> taints;
        int depth = 0;
        for (std::size_t li = 0; li < clean_lines_.size(); ++li) {
            const std::string& line = clean_lines_[li];
            const int lineno = static_cast<int>(li) + 1;
            for (const Taint& t : taints) {
                if (derefs_var(line, t.var)) emit(rule, lineno, msg + " ('" + t.var + "')");
            }
            taints.erase(std::remove_if(taints.begin(), taints.end(),
                                        [&](const Taint& t) {
                                            return reassigns_var(line, t.var);
                                        }),
                         taints.end());
            const std::string fresh = taint_here(line);
            if (!fresh.empty()) taints.push_back({fresh, depth, lineno});
            for (char c : line) {
                if (c == '{') ++depth;
                if (c == '}') --depth;
            }
            taints.erase(std::remove_if(taints.begin(), taints.end(),
                                        [&](const Taint& t) { return depth < t.depth; }),
                         taints.end());
        }
    }

    // ---- R3: get_unmarked before dereference ------------------------------

    void check_r3() {
        // Direct form: get_marked(...)-> / get_flagged(...)->
        for (const char* helper : {"get_marked(", "get_flagged("}) {
            std::size_t pos = 0;
            while ((pos = clean_.find(helper, pos)) != std::string::npos) {
                const std::size_t call = pos;
                pos += std::strlen(helper);
                if (call > 0 && is_ident_char(clean_[call - 1])) continue;
                const std::size_t open = call + std::strlen(helper) - 1;
                const std::size_t close = match_paren(clean_, open);
                if (close == std::string::npos) continue;
                std::size_t p = close + 1;
                while (p < clean_.size() && (clean_[p] == ' ' || clean_[p] == '\n')) ++p;
                if (p + 1 < clean_.size() && clean_[p] == '-' && clean_[p + 1] == '>') {
                    emit("R3", line_of(call),
                         "dereference of a marked pointer — apply get_unmarked() first");
                }
            }
        }
        // Escaped form: v = get_marked(...); ... v->field
        taint_pass("R3", "dereference of a pointer that may carry mark bits — "
                         "apply get_unmarked() first",
                   [](const std::string& line) -> std::string {
                       for (const char* helper : {"get_marked(", "get_flagged("}) {
                           const std::size_t call = line.find(helper);
                           if (call == std::string::npos) continue;
                           if (call > 0 && is_ident_char(line[call - 1])) continue;
                           return assigned_var(line, call);
                       }
                       return "";
                   });
    }

    // ---- R4: per-thread arrays must be cacheline-padded -------------------

    void check_r4() {
        // Types declared with alignas in this file are acceptable elements.
        std::set<std::string> padded_types;
        for (const char* intro : {"struct", "class"}) {
            std::size_t pos = 0;
            while ((pos = clean_.find(intro, pos)) != std::string::npos) {
                std::size_t p = pos + std::strlen(intro);
                pos = p;
                if (p >= clean_.size() || is_ident_char(clean_[p])) continue;
                while (p < clean_.size() &&
                       std::isspace(static_cast<unsigned char>(clean_[p]))) ++p;
                if (clean_.compare(p, 8, "alignas(") != 0) continue;
                const std::size_t close = match_paren(clean_, p + 7);
                if (close == std::string::npos) continue;
                p = close + 1;
                while (p < clean_.size() &&
                       std::isspace(static_cast<unsigned char>(clean_[p]))) ++p;
                std::size_t b = p;
                while (p < clean_.size() && is_ident_char(clean_[p])) ++p;
                if (p > b) padded_types.insert(clean_.substr(b, p - b));
            }
        }
        std::size_t pos = 0;
        while ((pos = clean_.find("[kMaxThreads]", pos)) != std::string::npos) {
            const std::size_t bracket = pos;
            pos += 1;
            const int lineno = line_of(bracket);
            const std::string& line = clean_lines_[lineno - 1];
            const std::size_t col = bracket - line_starts_[lineno - 1];
            std::string before = trim(line.substr(0, col));
            // Strip the declarator name.
            std::size_t e = before.size();
            while (e > 0 && is_ident_char(before[e - 1])) --e;
            std::string type = trim(before.substr(0, e));
            if (type.empty()) continue;  // subscript expression, not a declaration
            if (type.find("CachelinePadded") != std::string::npos) continue;
            if (type.find("alignas") != std::string::npos) continue;
            // Leading type identifier (possibly qualified), e.g. Slot,
            // TLInfo, std::atomic.
            std::size_t b = 0;
            while (b < type.size() &&
                   std::isspace(static_cast<unsigned char>(type[b]))) ++b;
            std::size_t te = b;
            while (te < type.size() && (is_ident_char(type[te]) || type[te] == ':')) ++te;
            std::string head = type.substr(b, te - b);
            // Skip storage/cv keywords.
            static const std::set<std::string> kSkips = {"static", "constexpr", "inline",
                                                         "const", "mutable", "extern"};
            while (kSkips.count(head) != 0) {
                b = te;
                while (b < type.size() &&
                       std::isspace(static_cast<unsigned char>(type[b]))) ++b;
                te = b;
                while (te < type.size() && (is_ident_char(type[te]) || type[te] == ':')) ++te;
                head = type.substr(b, te - b);
            }
            if (padded_types.count(head) != 0) continue;
            emit("R4", lineno,
                 "per-thread array '" + type +
                     " ...[kMaxThreads]' is not CachelinePadded — adjacent threads will "
                     "false-share");
        }
    }

    // ---- R5: no raw-pointer dereference escaping a protection scope -------

    void check_r5() {
        // Direct forms: x.get()->f / x.load_unsafe(...)->f
        std::size_t pos = 0;
        while ((pos = clean_.find(".get()", pos)) != std::string::npos) {
            const std::size_t call = pos;
            pos += 6;
            std::size_t p = call + 6;
            while (p < clean_.size() && (clean_[p] == ' ' || clean_[p] == '\n')) ++p;
            if (p + 1 < clean_.size() && clean_[p] == '-' && clean_[p + 1] == '>') {
                emit("R5", line_of(call),
                     "dereference through .get() — use the orc_ptr's own operator->");
            }
        }
        pos = 0;
        while ((pos = clean_.find("load_unsafe(", pos)) != std::string::npos) {
            const std::size_t call = pos;
            pos += std::strlen("load_unsafe(");
            if (call > 0 && is_ident_char(clean_[call - 1])) continue;
            const std::size_t open = call + std::strlen("load_unsafe(") - 1;
            const std::size_t close = match_paren(clean_, open);
            if (close == std::string::npos) continue;
            std::size_t p = close + 1;
            while (p < clean_.size() && (clean_[p] == ' ' || clean_[p] == '\n')) ++p;
            if (p + 1 < clean_.size() && clean_[p] == '-' && clean_[p + 1] == '>') {
                emit("R5", line_of(call),
                     "dereference of a load_unsafe() result — unprotected reads are for "
                     "validation only");
            }
        }
        // Escaped form: raw = x.get(); ... raw->field  (orc_ptr targets are
        // exempt: their operator-> is the protected path).
        taint_pass("R5", "dereference of a raw pointer that escaped its protection scope — "
                         "keep the orc_ptr alive and dereference through it",
                   [](const std::string& line) -> std::string {
                       if (line.find("orc_ptr") != std::string::npos) return "";
                       for (const char* src : {".get()", ".load_unsafe(", "->load_unsafe("}) {
                           const std::size_t call = line.find(src);
                           if (call == std::string::npos) continue;
                           return assigned_var(line, call);
                       }
                       return "";
                   });
    }

    std::string path_;
    std::string orig_;
    std::string clean_;
    RuleSet rules_;
    std::vector<Diag>& diags_;
    std::vector<std::string> orig_lines_;
    std::vector<std::string> clean_lines_;
    std::vector<std::size_t> line_starts_;
    std::map<int, std::set<std::string>> suppressed_;
};

RuleSet rules_for_path(const std::string& generic_path) {
    RuleSet r;
    const bool core = generic_path.find("/core/") != std::string::npos;
    r.r1 = core || generic_path.find("/reclamation/") != std::string::npos;
    const bool ds_orc = generic_path.find("/ds/orc/") != std::string::npos;
    r.r2 = ds_orc;
    r.r5 = ds_orc;
    // make_orc.hpp is the engine's single sanctioned allocation site; every
    // other core file is on a retire/protect hot path.
    r.r6 = core && generic_path.find("/make_orc.hpp") == std::string::npos;
    // The façade itself (and the domain it forwards to) lives in core; every
    // other tree — library, tests, benches, examples — must go through a
    // domain.
    r.r7 = !core;
    // The telemetry layer is where counters are SUPPOSED to live; everywhere
    // else in the engine and the manual schemes, a hand-rolled atomic
    // counter bypasses the registry.
    r.r8 = (core || generic_path.find("/reclamation/") != std::string::npos) &&
           generic_path.find("/orc_metrics.hpp") == std::string::npos;
    // The fence facility is R9's single sanctioned home for the syscall and
    // for publish-strength decisions; everywhere else both sub-rules apply
    // (b only where protection slots live: the engine + the manual schemes).
    const bool asym_home = generic_path.find("/common/asym_fence.") != std::string::npos;
    r.r9a = !asym_home;
    r.r9b = !asym_home &&
            (core || generic_path.find("/reclamation/") != std::string::npos);
    // Client trees (tests/benches/examples) legitimately poke at marked
    // pointers and declare unpadded scratch arrays when exercising the
    // library; the memory-layout rules are library-discipline only.
    const bool client = generic_path.find("/tests/") != std::string::npos ||
                        generic_path.find("/bench/") != std::string::npos ||
                        generic_path.find("/examples/") != std::string::npos;
    if (client) {
        r.r3 = false;
        r.r4 = false;
    }
    // The domain free path is the one sanctioned place to free an orc_base:
    // destroy() and the teardown sweeps live there, as does OrcSan's
    // quarantine diversion. Everywhere else — engine, schemes, structures,
    // clients — a raw free of a tracked object bypasses the hazard scan.
    r.r10 = generic_path.find("/core/orc_domain.hpp") == std::string::npos;
    // Reclamation runs on the retiring threads; a raw std::thread anywhere
    // in the engine or the manual schemes escapes the domain destruction
    // protocol.
    r.r11 = core || generic_path.find("/reclamation/") != std::string::npos;
    // The manual-scheme substrate is the one sanctioned home for slot
    // arrays, retire bags and the SchemeMetrics provider; a scheme file that
    // re-forks any of them has drifted off the shared (audited) paths.
    r.r12 = generic_path.find("/reclamation/") != std::string::npos &&
            generic_path.find("/scheme_base.hpp") == std::string::npos;
    // Raw clocks are the telemetry layer's business: telemetry.hpp (in
    // common/, outside this rule's scope) and its engine half
    // (orc_metrics.hpp) own the tick source; the rest of the engine and the
    // manual schemes stamp through coarse_now()/now_tsc().
    r.r13 = (core || generic_path.find("/reclamation/") != std::string::npos) &&
            generic_path.find("/orc_metrics.hpp") == std::string::npos;
    return r;
}

bool lintable_extension(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<fs::path> inputs;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "orc-lint: --root requires a directory\n");
                return 2;
            }
            inputs.emplace_back(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: orc_lint [--root DIR]... [FILE]...\n"
                         "Lints OrcGC reclamation discipline (rules R1-R13).\n");
            return 0;
        } else {
            inputs.emplace_back(argv[i]);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr, "orc-lint: no inputs (try --root src)\n");
        return 2;
    }

    std::vector<fs::path> files;
    for (const fs::path& in : inputs) {
        std::error_code ec;
        if (fs::is_directory(in, ec)) {
            for (const auto& entry : fs::recursive_directory_iterator(in)) {
                if (entry.is_regular_file() && lintable_extension(entry.path())) {
                    files.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(in, ec)) {
            files.push_back(in);
        } else {
            std::fprintf(stderr, "orc-lint: cannot read %s\n", in.string().c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<Diag> diags;
    for (const fs::path& file : files) {
        std::ifstream stream(file);
        if (!stream) {
            std::fprintf(stderr, "orc-lint: cannot open %s\n", file.string().c_str());
            return 2;
        }
        std::stringstream buf;
        buf << stream.rdbuf();
        const std::string abs = fs::absolute(file).generic_string();
        FileLinter linter(file.generic_string(), buf.str(), rules_for_path(abs), diags);
        linter.run();
    }

    std::sort(diags.begin(), diags.end());
    for (const Diag& d : diags) {
        std::printf("%s:%d: %s: %s\n", d.file.c_str(), d.line, d.rule.c_str(), d.msg.c_str());
    }
    if (!diags.empty()) {
        std::printf("orc-lint: %zu diagnostic%s\n", diags.size(), diags.size() == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
