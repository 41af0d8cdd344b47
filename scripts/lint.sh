#!/usr/bin/env bash
# Static analysis gate, in two parts.
#
# 1. Ship audit (always runs). Every global function the src/ libraries
#    define must be kept by some binary outside tests/ — the tools, the
#    examples, the paper and BENCH programs, and perfbench's package — or
#    be listed in scripts/ship_audit.allow with its reason. The tree and
#    perfbench's package are built into build-audit/ at -O0 with one
#    section per function and the linker's section GC, so a function left
#    in a shipped binary is one the binary can reach. tecfan_testing's own
#    functions are exempt: src/testing exists to support tests. The audit
#    fails, printing the demangled names, on any function it finds kept
#    by tests alone and not allowlisted, and on an allowlist line that
#    gives no valid reason or that no such function matches any more.
#
# 2. clang-tidy over the library sources with the checks in .clang-tidy
#    (bugprone-*, performance-*, misc-const-correctness — the last one
#    guards the engine/workspace const discipline). Skipped when
#    clang-tidy is not installed so tier-1 stays runnable in minimal
#    containers.
#
#   scripts/lint.sh             # audit, then lint src/
#   scripts/lint.sh path a.cpp  # audit, then lint specific files
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
AUDIT=build-audit
audit_config=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S . -B "$AUDIT" "${audit_config[@]}" > /dev/null
cmake -S perfbench -B "$AUDIT/perfbench" "${audit_config[@]}" > /dev/null
# Every top-level directory of the tree but tests/, and perfbench's package.
for dir in "$AUDIT"/*/; do
  [[ "$dir" == "$AUDIT/tests/" || ! -f "$dir/Makefile" ]] && continue
  make -C "$dir" -j"$JOBS" --no-print-directory > /dev/null
done

python3 - "$AUDIT" scripts/ship_audit.allow <<'EOF'
import glob, os, re, subprocess, sys

audit, allow_path = sys.argv[1], sys.argv[2]
REASONS = {"seam", "contract", "reference", "test-helper", "3b"}

def nm(path, types=None):
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and (types is None or parts[1] in types):
            names.add(parts[2])
    return names

def is_elf(path):
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"

defined = set()
for lib in glob.glob(f"{audit}/src/*/libtecfan_*.a"):
    if os.path.basename(lib) != "libtecfan_testing.a":
        defined |= nm(lib, {"T"})
kept = set()
for root, dirs, files in os.walk(audit):
    dirs[:] = [d for d in dirs if d != "CMakeFiles" and
               os.path.join(root, d) != os.path.join(audit, "tests")]
    for name in files:
        path = os.path.join(root, name)
        if os.access(path, os.X_OK) and is_elf(path):
            kept |= nm(path)
test_only = sorted(defined - kept)
demangled = subprocess.run(["c++filt"], input="\n".join(test_only),
                           check=True, capture_output=True,
                           text=True).stdout.splitlines()

def qualified(name):
    """'tecfan::ns::Cls::fn(int) const' -> 'ns::Cls::fn'."""
    op = name.find("operator")
    start = op + len("operator()") if name.startswith("operator()", op) \
        else max(op, 0)
    depth = 0
    for i in range(start, len(name)):
        if name[i] == "<":
            depth += 1
        elif name[i] == ">":
            depth -= 1
        elif name[i] == "(" and depth == 0:
            name = name[:i]
            break
    return re.sub(r"\[abi:\w+\]", "", name).removeprefix("tecfan::")

allow, errors = {}, []
with open(allow_path) as f:
    for number, line in enumerate(f, 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2 or fields[1] not in REASONS:
            errors.append(f"{allow_path}:{number}: want '<function or class> "
                          f"<{'|'.join(sorted(REASONS))}>', got {line.strip()!r}")
        else:
            allow[fields[0]] = 0

unlisted = []
for name in sorted(set(demangled)):
    q = qualified(name)
    owners = [a for a in allow if q == a or q.startswith(a + "::")]
    for a in owners:
        allow[a] += 1
    if not owners:
        unlisted.append(name)
errors += [f"{allow_path}: '{a}' matches no test-only function; drop the line"
           for a, hits in allow.items() if hits == 0]
if unlisted:
    errors.append("no binary outside tests/ keeps these library functions; "
                  "ship or delete them, or allowlist them with a reason in "
                  f"{allow_path}:")
    errors += [f"  {name}" for name in unlisted]
if errors:
    sys.exit("ship audit: FAIL\n" + "\n".join(errors))
print(f"ship audit: {len(set(demangled))} test-only functions, all covered "
      f"by the {len(allow)} lines of {allow_path}")
EOF

if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "lint: clang-tidy not found; skipping static analysis" >&2
  exit 0
fi

# clang-tidy needs a compilation database; generate one if absent.
if [[ ! -f build/compile_commands.json ]]; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
fi

FILES=("$@")
if [[ ${#FILES[@]} -eq 0 ]]; then
  mapfile -t FILES < <(find src -name '*.cpp' | sort)
fi

clang-tidy -p build --quiet "${FILES[@]}"
