/**
 * @file
 * ramp-lint CLI. Walks the repo (or explicit paths), scans every
 * file across a thread pool, runs the cross-file passes, and prints
 * `path:line: [rule] message` per finding in path-sorted order.
 *
 *   ramp_lint --root DIR [--manifest FILE] [--threads N]
 *             [--dump-metrics] [--no-manifest] [PATH...]
 *
 * With no PATH arguments the default walk is root/{src,bench,
 * examples,tests,tools}. A missing or unreadable root or PATH is a
 * hard error -- the scan never silently shrinks. `--threads 0`
 * (default) uses hardware concurrency; output is bit-identical at
 * any thread count because per-file results merge in path order.
 * `--dump-metrics` prints the extracted `<kind> <name>` set instead
 * of linting (used to seed the manifest). Exit: 0 clean, 1
 * findings, 2 usage error.
 */

#include "lint.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "util/thread_pool.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --root DIR [--manifest FILE] [--threads N]\n"
        "          [--dump-metrics] [--no-manifest] [PATH...]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;
    using namespace ramp_lint;

    fs::path root;
    fs::path manifest_path;
    bool dump = false;
    bool no_manifest = false;
    unsigned threads = 0;
    std::vector<fs::path> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--manifest" && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            char *end = nullptr;
            const unsigned long v =
                std::strtoul(argv[++i], &end, 10);
            if (!end || *end != '\0') {
                std::fprintf(stderr,
                             "--threads %s: not an integer\n",
                             argv[i]);
                return usage(argv[0]);
            }
            threads = static_cast<unsigned>(v);
        } else if (arg == "--dump-metrics") {
            dump = true;
        } else if (arg == "--no-manifest") {
            no_manifest = true;
        } else if (arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return usage(argv[0]);
        } else {
            paths.emplace_back(arg);
        }
    }
    if (root.empty())
        return usage(argv[0]);
    if (!fs::is_directory(root)) {
        std::fprintf(stderr, "--root %s: not a directory\n",
                     root.string().c_str());
        return 2;
    }
    if (paths.empty()) {
        for (const char *d :
             {"src", "bench", "examples", "tests", "tools"}) {
            const fs::path p = root / d;
            if (!fs::is_directory(p)) {
                std::fprintf(
                    stderr,
                    "--root %s: expected subdirectory %s is "
                    "missing; pass explicit PATH arguments to "
                    "lint a partial tree\n",
                    root.string().c_str(), d);
                return 2;
            }
            paths.push_back(p);
        }
    }
    if (manifest_path.empty())
        manifest_path = root / "docs" / "metrics.manifest";

    std::vector<fs::path> files;
    std::string walk_error;
    if (!collectSources(paths, files, walk_error)) {
        std::fprintf(stderr, "ramp-lint: %s\n",
                     walk_error.c_str());
        return 2;
    }
    if (files.empty()) {
        std::fprintf(stderr, "no sources found\n");
        return 2;
    }

    // Per-file scans are pure, so they fan out across the pool;
    // results land by index and merge in path order, keeping output
    // bit-identical at any thread count.
    const auto scan_start = std::chrono::steady_clock::now();
    ramp::util::ThreadPool pool(threads);
    std::vector<FileScan> scans(files.size());
    const auto batch =
        pool.parallelFor(files.size(), [&](std::size_t i) {
            scans[i] = scanFile(files[i], root);
        });
    if (!batch.ok()) {
        for (const auto &[index, err] : batch.failures)
            std::fprintf(stderr, "ramp-lint: %s: %s\n",
                         files[index].string().c_str(),
                         err.message.c_str());
        return 2;
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - scan_start)
            .count();

    if (dump) {
        std::set<std::pair<std::string, std::string>> seen;
        for (const auto &scan : scans)
            for (const auto &r : scan.refs)
                seen.insert({r.kind, r.name});
        for (const auto &[kind, name] : seen)
            std::printf("%s %s\n", kind.c_str(), name.c_str());
        return 0;
    }

    LintContext ctx;
    ctx.root = root;
    if (!no_manifest)
        ctx.manifest = loadManifest(manifest_path, ctx.diags);

    for (auto &scan : scans) {
        ctx.diags.insert(ctx.diags.end(), scan.diags.begin(),
                         scan.diags.end());
        ctx.refs.insert(ctx.refs.end(), scan.refs.begin(),
                        scan.refs.end());
    }
    if (!no_manifest)
        checkManifest(ctx);
    checkWireSchema(root, scans, ctx.diags);

    for (const auto &d : ctx.diags)
        std::fprintf(stderr, "%s:%zu: [%s] %s\n",
                     d.file.generic_string().c_str(), d.line,
                     d.rule.c_str(), d.message.c_str());
    std::fprintf(stderr,
                 "ramp-lint: scanned %zu files in %.1f ms "
                 "(%u threads)\n",
                 files.size(), wall_ms, pool.threads());
    if (!ctx.diags.empty()) {
        std::fprintf(stderr, "ramp-lint: %zu finding(s) in %zu "
                             "file(s) scanned\n",
                     ctx.diags.size(), files.size());
        return 1;
    }
    std::printf("ramp-lint: clean (%zu files)\n", files.size());
    return 0;
}
