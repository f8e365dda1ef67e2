// esam_lint: in-tree source lint for project rules no off-the-shelf tool
// knows. It scans src/ and include/ and enforces:
//
//   no-rand            library   libc rand()/srand() and std::random_device
//                                are banned: results must be bit-identical
//                                across runs and platforms, so all
//                                stochasticity flows through seeded
//                                util::Rng streams.
//   no-wall-clock      library   wall-clock time (system_clock, std::time,
//                                gettimeofday, clock(), localtime/gmtime)
//                                is banned in library code: modelled
//                                results may not depend on when they were
//                                computed. Monotonic steady_clock is
//                                allowed (host-side latency budgets).
//   no-unseeded-rng    all       util::Rng must be constructed with an
//                                explicit seed; a default-constructed
//                                stream hides the seeding decision.
//   no-stdout          library   std::cout / printf / puts are banned
//                                outside src/tools: the library must not
//                                pollute the CLI's stdout. Report through
//                                return values, callbacks, or stderr.
//   no-atoi            all       atoi/atol/atoll/atof are banned (they
//                                accept garbage and wrap negatives to huge
//                                unsigned values); parse through
//                                util::parse_size / util::parse_double.
//                                util/parse.hpp itself is exempt.
//   no-naked-new       all       naked new/delete are banned; use
//                                containers and smart pointers (`= delete`
//                                declarations are fine).
//   mutex-needs-guard  all       every declared mutex member must have at
//                                least one ESAM_GUARDED_BY /
//                                ESAM_PT_GUARDED_BY user in the same file,
//                                so the clang -Wthread-safety lane actually
//                                checks something for that lock.
//   no-raw-thread      library   std::thread / std::jthread are banned:
//                                sharded work goes through the one worker
//                                pool, util::parallel_for. Exempt are
//                                util/parallel.hpp itself and the serve
//                                module (src/serve/, include/esam/serve/),
//                                whose long-lived worker and adaptation
//                                threads are not a parallel loop.
//   one-train-loop     library   calls to commit_pending are allowed only
//                                in src/arch/system.cpp and the learning
//                                module (src/learning/,
//                                include/esam/learning/): online training
//                                runs through the one windowed loop,
//                                SystemSimulator::train_pass, so no second
//                                stage/commit loop can grow elsewhere.
//   priced-energy      library   an add( call naming EnergyCategory::
//                                kSramRead / kArbiter / kNeuron / kFabric
//                                is allowed only in src/arch/tile.cpp:
//                                tile energy is Tile::price over integer
//                                event counts, so no float posting stream
//                                (and no ordered merge) can grow back.
//
// "library" means src/ (minus src/tools/) and include/; "all" adds
// src/tools/, bench/ and examples/ (both scanned at tool scope -- they may
// print, but must stay deterministic and parse their inputs strictly).
// Tests are not scanned.
//
// A finding on a deliberately-fine line is suppressed with a trailing
//   // esam-lint: allow(<rule>)
// comment, which doubles as in-source documentation of the exception.
//
// Self-test mode (`esam_lint --self-test <dir>`) runs the rule engine over
// fixture snippets whose first line declares the expected outcome
// (`// esam-lint-fixture: expect=no-rand` or `expect=clean`), proving both
// that every rule fires on a violation and that allowed patterns pass.
// Wired as CTest targets `lint` and `lint_selftest`.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

enum class Scope { kLibrary, kTool };

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string display_path;
  Scope scope = Scope::kLibrary;
  /// Lines with comments and string/char literals blanked out (same length
  /// as the raw line, so columns still correspond).
  std::vector<std::string> code;
  /// Raw lines, used only to find esam-lint: allow(...) suppressions.
  std::vector<std::string> raw;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blanks out //, /* */ comments and "..."/'...' literals so rule matching
/// never fires on prose or on patterns quoted inside strings. Escapes are
/// honoured; raw strings are treated as plain ones (good enough as long as
/// no raw literal embeds an unescaped quote, which clang-format-clean code
/// here does not).
std::vector<std::string> strip_comments_and_strings(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block_comment = false;
  for (const std::string& line : lines) {
    std::string code(line.size(), ' ');
    for (std::size_t i = 0; i < line.size();) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

/// True when `text` contains `token` as a whole word immediately followed
/// by `(` (whitespace between token and paren allowed).
bool has_call(const std::string& text, const std::string& token) {
  for (std::size_t pos = text.find(token); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    if (pos > 0 && ident_char(text[pos - 1])) continue;
    std::size_t after = pos + token.size();
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after])) != 0) {
      ++after;
    }
    if (after < text.size() && text[after] == '(') return true;
  }
  return false;
}

bool has_word(const std::string& text, const std::string& word) {
  for (std::size_t pos = text.find(word); pos != std::string::npos;
       pos = text.find(word, pos + 1)) {
    if (pos > 0 && ident_char(text[pos - 1])) continue;
    const std::size_t after = pos + word.size();
    if (after < text.size() && ident_char(text[after])) continue;
    return true;
  }
  return false;
}

bool line_allows(const std::string& raw_line, const std::string& rule) {
  const std::string tag = "esam-lint: allow(" + rule + ")";
  return raw_line.find(tag) != std::string::npos;
}

using RuleFn = void (*)(const SourceFile&, std::vector<Finding>&);

void check_line_rule(const SourceFile& f, std::vector<Finding>& out,
                     const std::string& rule, bool library_only,
                     bool (*hit)(const std::string&), const char* message) {
  if (library_only && f.scope != Scope::kLibrary) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!hit(f.code[i])) continue;
    if (line_allows(f.raw[i], rule)) continue;
    out.push_back({f.display_path, i + 1, rule, message});
  }
}

void rule_no_rand(const SourceFile& f, std::vector<Finding>& out) {
  check_line_rule(
      f, out, "no-rand", /*library_only=*/true,
      [](const std::string& s) {
        return has_call(s, "rand") || has_call(s, "srand") ||
               has_word(s, "random_device");
      },
      "non-deterministic randomness; use a seeded util::Rng stream");
}

void rule_no_wall_clock(const SourceFile& f, std::vector<Finding>& out) {
  check_line_rule(
      f, out, "no-wall-clock", /*library_only=*/true,
      [](const std::string& s) {
        return has_word(s, "system_clock") || has_call(s, "time") ||
               has_call(s, "clock") || has_call(s, "gettimeofday") ||
               has_call(s, "localtime") || has_call(s, "gmtime");
      },
      "wall-clock time in library code; modelled results must not depend "
      "on when they run (steady_clock is fine for host-side deadlines)");
}

void rule_no_unseeded_rng(const SourceFile& f, std::vector<Finding>& out) {
  // Rng x; / Rng x{}; and the temporaries Rng() / Rng{} -- but not
  // Rng(seed), and not `Rng rng_;` members (trailing-underscore names are
  // members by project convention, seeded in a constructor init list the
  // line-based lint cannot see; the ctor itself is then checked instead).
  static const std::regex unseeded_local("\\bRng\\s+(\\w+)\\s*(?:;|\\{\\s*\\})");
  static const std::regex unseeded_temp("\\bRng\\s*(?:\\(\\s*\\)|\\{\\s*\\})");
  check_line_rule(
      f, out, "no-unseeded-rng", /*library_only=*/false,
      [](const std::string& s) {
        if (std::regex_search(s, unseeded_temp)) return true;
        std::smatch m;
        return std::regex_search(s, m, unseeded_local) &&
               m[1].str().back() != '_';
      },
      "util::Rng constructed without an explicit seed");
}

void rule_no_stdout(const SourceFile& f, std::vector<Finding>& out) {
  check_line_rule(
      f, out, "no-stdout", /*library_only=*/true,
      [](const std::string& s) {
        return s.find("std::cout") != std::string::npos ||
               has_call(s, "printf") || has_call(s, "puts");
      },
      "stdout output from library code; return data or log to stderr");
}

void rule_no_atoi(const SourceFile& f, std::vector<Finding>& out) {
  // util/parse.hpp is the one sanctioned numeric-parsing site: its strict
  // from_chars/strtod wrappers are exactly what this rule points people at.
  const std::string exempt = "util/parse.hpp";
  if (f.display_path.size() >= exempt.size() &&
      f.display_path.compare(f.display_path.size() - exempt.size(),
                             exempt.size(), exempt) == 0) {
    return;
  }
  check_line_rule(
      f, out, "no-atoi", /*library_only=*/false,
      [](const std::string& s) {
        return has_call(s, "atoi") || has_call(s, "atol") ||
               has_call(s, "atoll") || has_call(s, "atof");
      },
      "raw numeric parse (accepts garbage, wraps negatives to huge "
      "values); use util::parse_size / util::parse_double");
}

void rule_no_naked_new(const SourceFile& f, std::vector<Finding>& out) {
  check_line_rule(
      f, out, "no-naked-new", /*library_only=*/false,
      [](const std::string& s) {
        if (has_word(s, "new")) return true;
        for (std::size_t pos = s.find("delete"); pos != std::string::npos;
             pos = s.find("delete", pos + 1)) {
          if (pos > 0 && ident_char(s[pos - 1])) continue;
          const std::size_t after = pos + 6;
          if (after < s.size() && ident_char(s[after])) continue;
          // `= delete` / `= delete;` declarations are not allocations.
          std::size_t before = pos;
          while (before > 0 && std::isspace(static_cast<unsigned char>(
                                   s[before - 1])) != 0) {
            --before;
          }
          if (before > 0 && s[before - 1] == '=') continue;
          return true;
        }
        return false;
      },
      "naked new/delete; use containers or smart pointers");
}

void rule_mutex_needs_guard(const SourceFile& f, std::vector<Finding>& out) {
  static const std::regex decl(
      "^\\s*(?:mutable\\s+)?(?:std::mutex|(?:util::)?Mutex)\\s+(\\w+)\\s*[;{]");
  // Which mutex names does some ESAM_GUARDED_BY in this file reference?
  std::set<std::string> guarded;
  static const std::regex guard("ESAM(?:_PT)?_GUARDED_BY\\(\\s*(\\w+)\\s*\\)");
  for (const std::string& line : f.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), guard), end;
         it != end; ++it) {
      guarded.insert((*it)[1]);
    }
  }
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(f.code[i], m, decl)) continue;
    if (guarded.count(m[1]) != 0) continue;
    if (line_allows(f.raw[i], "mutex-needs-guard")) continue;
    out.push_back({f.display_path, i + 1, "mutex-needs-guard",
                   "mutex member '" + m[1].str() +
                       "' has no ESAM_GUARDED_BY user in this file; the "
                       "thread-safety analysis is blind to it"});
  }
}

void rule_no_raw_thread(const SourceFile& f, std::vector<Finding>& out) {
  for (const char* exempt :
       {"util/parallel.hpp", "src/serve/", "include/esam/serve/"}) {
    if (f.display_path.find(exempt) != std::string::npos) return;
  }
  check_line_rule(
      f, out, "no-raw-thread", /*library_only=*/true,
      [](const std::string& s) {
        return has_word(s, "std::thread") || has_word(s, "std::jthread");
      },
      "raw thread in library code; shard work through util::parallel_for");
}

void rule_one_train_loop(const SourceFile& f, std::vector<Finding>& out) {
  for (const char* exempt :
       {"src/arch/system.cpp", "src/learning/", "include/esam/learning/"}) {
    if (f.display_path.find(exempt) != std::string::npos) return;
  }
  check_line_rule(
      f, out, "one-train-loop", /*library_only=*/true,
      [](const std::string& s) { return has_call(s, "commit_pending"); },
      "learning commit outside the training loop; train through "
      "SystemSimulator::train_pass");
}

void rule_priced_energy(const SourceFile& f, std::vector<Finding>& out) {
  if (f.display_path.find("src/arch/tile.cpp") != std::string::npos) return;
  check_line_rule(
      f, out, "priced-energy", /*library_only=*/true,
      [](const std::string& s) {
        static const std::regex category(
            "EnergyCategory::k(?:SramRead|Arbiter|Neuron|Fabric)\\b");
        return has_call(s, "add") && std::regex_search(s, category);
      },
      "tile energy posted outside Tile::price; count the event in "
      "TileStats and price it in src/arch/tile.cpp");
}

constexpr RuleFn kRules[] = {
    rule_no_rand,
    rule_no_wall_clock,
    rule_no_unseeded_rng,
    rule_no_stdout,
    rule_no_atoi,
    rule_no_naked_new,
    rule_mutex_needs_guard,
    rule_no_raw_thread,
    rule_one_train_loop,
    rule_priced_energy,
};

SourceFile load_file(const fs::path& path, Scope scope,
                     const std::string& display) {
  SourceFile f;
  f.display_path = display;
  f.scope = scope;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) f.raw.push_back(line);
  f.code = strip_comments_and_strings(f.raw);
  return f;
}

std::vector<Finding> run_rules(const SourceFile& f) {
  std::vector<Finding> findings;
  for (RuleFn rule : kRules) rule(f, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

bool scanned_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

int scan_tree(const fs::path& root) {
  const fs::path src = root / "src";
  const fs::path include = root / "include";
  const fs::path tools = src / "tools";
  if (!fs::is_directory(src) || !fs::is_directory(include)) {
    std::fprintf(stderr, "esam_lint: %s does not look like the repo root "
                         "(no src/ + include/)\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Finding> findings;
  std::size_t files = 0;
  // bench/ and examples/ are scanned at tool scope: user-facing binaries
  // may print to stdout, but the determinism and input-parsing rules still
  // apply to them (the no-atoi sweep found its bugs exactly there).
  std::vector<fs::path> tops = {src, include};
  for (const char* extra : {"bench", "examples"}) {
    if (fs::is_directory(root / extra)) tops.push_back(root / extra);
  }
  for (const fs::path& top : tops) {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (entry.is_regular_file() && scanned_extension(entry.path())) {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
      const bool in_tools =
          std::mismatch(tools.begin(), tools.end(), p.begin(), p.end())
              .first == tools.end();
      const bool library = (top == src || top == include) && !in_tools;
      const SourceFile f =
          load_file(p, library ? Scope::kLibrary : Scope::kTool,
                    fs::relative(p, root).string());
      ++files;
      const std::vector<Finding> file_findings = run_rules(f);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  std::fprintf(stderr, "esam_lint: %zu file(s), %zu finding(s)\n", files,
               findings.size());
  return findings.empty() ? 0 : 1;
}

/// Fixture header: `// esam-lint-fixture: expect=<rule,...|clean> [scope=tool]`
int self_test(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "esam_lint: fixture dir %s missing\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension().string() == ".inc") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "esam_lint: no .inc fixtures in %s\n",
                 dir.string().c_str());
    return 2;
  }

  int failures = 0;
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    std::string header;
    std::getline(in, header);
    const std::string name = p.filename().string();
    const std::size_t tag = header.find("esam-lint-fixture:");
    const std::size_t exp = header.find("expect=");
    if (tag == std::string::npos || exp == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: missing esam-lint-fixture header\n",
                   name.c_str());
      ++failures;
      continue;
    }
    std::string spec = header.substr(exp + 7);
    spec = spec.substr(0, spec.find_first_of(" \t"));
    std::set<std::string> expected;
    if (spec != "clean") {
      std::stringstream ss(spec);
      std::string rule;
      while (std::getline(ss, rule, ',')) expected.insert(rule);
    }
    const Scope scope = header.find("scope=tool") != std::string::npos
                            ? Scope::kTool
                            : Scope::kLibrary;

    const SourceFile f = load_file(p, scope, name);
    std::set<std::string> fired;
    for (const Finding& finding : run_rules(f)) fired.insert(finding.rule);

    if (fired == expected) {
      std::fprintf(stderr, "ok   %s (%s)\n", name.c_str(), spec.c_str());
      continue;
    }
    ++failures;
    auto join = [](const std::set<std::string>& s) {
      std::string out;
      for (const std::string& r : s) {
        if (!out.empty()) out += ",";
        out += r;
      }
      return out.empty() ? std::string("clean") : out;
    };
    std::fprintf(stderr, "FAIL %s: expected {%s}, got {%s}\n", name.c_str(),
                 join(expected).c_str(), join(fired).c_str());
  }
  std::fprintf(stderr, "esam_lint --self-test: %zu fixture(s), %d failure(s)\n",
               paths.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--self-test") {
    return self_test(args[1]);
  }
  if (args.size() == 1 && args[0] != "--help") {
    return scan_tree(args[0]);
  }
  std::fprintf(stderr,
               "usage: esam_lint <repo-root>            scan src/ + include/\n"
               "       esam_lint --self-test <dir>      run fixture tests\n");
  return 2;
}
