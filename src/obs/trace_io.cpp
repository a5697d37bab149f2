#include "obs/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/file_io.hpp"

namespace mck::obs {

namespace {

using io::read_all;
using io::read_pod;
using io::set_error;
using io::write_all;
using io::write_pod;

constexpr char kRunMagic[4] = {'R', 'U', 'N', '.'};
constexpr char kDigMagic[4] = {'D', 'I', 'G', '.'};

// Domain separator for the footer's self-digest (guards the footer bytes
// themselves, so a bit flip inside the index is detected as "corrupt
// footer" instead of silently mislocating divergences).
constexpr std::uint64_t kFooterSeed = 0x666f6f746572ull;  // "footer"

// Appends a POD's raw bytes to the footer image (the footer is built in
// memory so its self-digest can cover exactly the bytes written).
template <typename T>
void append_pod(std::vector<unsigned char>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
  buf.insert(buf.end(), p, p + sizeof v);
}

}  // namespace

bool write_trace_file(const std::string& path, const TraceFileMeta& meta,
                      const std::vector<TraceRun>& runs, std::string* error) {
  io::FilePtr f = io::open_file(path, "wb", error);
  if (!f) return false;
  bool ok = io::write_header(f.get(), kTraceFileMagic, meta.num_processes,
                             meta.algo);
  // Digests the harness already computed over these exact records are
  // trusted; the others (absent, or of another shape) are computed from
  // the chunks as they are written.
  std::vector<std::optional<RunDigests>> fresh(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const TraceRun& run = runs[k];
    const std::uint64_t count = run.records.size();
    if (!run.digests.present() ||
        run.digests.chunks.size() != digest_chunk_count(count)) {
      fresh[k].emplace();
    }
    RunDigests* d = fresh[k] ? &*fresh[k] : nullptr;
    ok = ok && write_all(f.get(), kRunMagic, sizeof kRunMagic);
    ok = ok && write_pod(f.get(), static_cast<std::uint32_t>(run.rep));
    ok = ok && write_pod(f.get(), run.seed);
    ok = ok && write_pod(f.get(), count);
    if (!ok) break;
    for_each_chunk(run.records, [&](std::uint64_t c, const TraceRecord* p,
                                    std::size_t n) {
      ok = ok && write_all(f.get(), p, n * sizeof(TraceRecord));
      if (d != nullptr) d->chunks.push_back(chunk_digest(p, n, c));
    });
    if (d != nullptr) d->run = fold_run_digest(d->chunks, count);
  }
  if (ok) {
    // Footer image built in memory (a few KB even for 1M-record runs —
    // one u64 per 4096 records) so the trailing self-digest covers it.
    std::vector<unsigned char> footer;
    append_pod(footer, static_cast<std::uint32_t>(runs.size()));
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const TraceRun& run = runs[k];
      const RunDigests& d = fresh[k] ? *fresh[k] : run.digests;
      append_pod(footer, static_cast<std::uint32_t>(run.rep));
      append_pod(footer, d.run);
      append_pod(footer, static_cast<std::uint64_t>(d.chunks.size()));
      for (std::uint64_t c : d.chunks) append_pod(footer, c);
    }
    const std::uint64_t self =
        digest_bytes(footer.data(), footer.size(), kFooterSeed);
    ok = ok && write_all(f.get(), kDigMagic, sizeof kDigMagic);
    ok = ok && write_all(f.get(), footer.data(), footer.size());
    ok = ok && write_pod(f.get(), self);
  }
  return io::finish_write(f.get(), ok, path, error);
}

std::optional<TraceFile> read_trace_file(const std::string& path,
                                         std::string* error) {
  io::FilePtr f = io::open_file(path, "rb", error);
  if (!f) return std::nullopt;
  TraceFile out;
  if (!io::read_header(f.get(), kTraceFileMagic, path, "trace",
                       out.meta.num_processes, out.meta.algo, error)) {
    return std::nullopt;
  }
  bool saw_footer = false;
  std::vector<TraceRecord> chunk;
  for (;;) {
    char sect_magic[4];
    std::size_t got = std::fread(sect_magic, 1, sizeof sect_magic, f.get());
    if (got == 0) break;  // clean EOF
    if (got != sizeof sect_magic) {
      set_error(error, path + ": corrupt run section");
      return std::nullopt;
    }
    if (std::memcmp(sect_magic, kDigMagic, sizeof kDigMagic) == 0) {
      if (saw_footer) {
        set_error(error, path + ": unexpected digest footer");
        return std::nullopt;
      }
      // Parse the footer while rebuilding its byte image, then check the
      // trailing self-digest against it.
      std::vector<unsigned char> image;
      std::uint32_t run_count = 0;
      if (!read_pod(f.get(), run_count) ||
          run_count != static_cast<std::uint32_t>(out.runs.size())) {
        set_error(error, path + ": corrupt digest footer (run count)");
        return std::nullopt;
      }
      append_pod(image, run_count);
      for (std::uint32_t i = 0; i < run_count; ++i) {
        std::uint32_t rep = 0;
        std::uint64_t run_digest = 0, chunk_count = 0;
        if (!read_pod(f.get(), rep) || !read_pod(f.get(), run_digest) ||
            !read_pod(f.get(), chunk_count)) {
          set_error(error, path + ": truncated digest footer");
          return std::nullopt;
        }
        TraceRun& run = out.runs[i];
        if (rep != static_cast<std::uint32_t>(run.rep) ||
            chunk_count != digest_chunk_count(run.records.size())) {
          set_error(error, path + ": corrupt digest footer (chunk shape)");
          return std::nullopt;
        }
        append_pod(image, rep);
        append_pod(image, run_digest);
        append_pod(image, chunk_count);
        run.digests.run = run_digest;
        run.digests.chunks.resize(static_cast<std::size_t>(chunk_count));
        if (!read_all(f.get(), run.digests.chunks.data(),
                      static_cast<std::size_t>(chunk_count) *
                          sizeof(std::uint64_t))) {
          set_error(error, path + ": truncated digest footer");
          return std::nullopt;
        }
        for (std::uint64_t c : run.digests.chunks) append_pod(image, c);
      }
      std::uint64_t self = 0;
      if (!read_pod(f.get(), self) ||
          self != digest_bytes(image.data(), image.size(), kFooterSeed)) {
        set_error(error, path + ": corrupt digest footer (self-digest)");
        return std::nullopt;
      }
      saw_footer = true;
      continue;  // only EOF may follow
    }
    if (std::memcmp(sect_magic, kRunMagic, sizeof kRunMagic) != 0 ||
        saw_footer) {
      set_error(error, path + ": corrupt run section");
      return std::nullopt;
    }
    TraceRun run;
    std::uint32_t rep = 0;
    std::uint64_t count = 0;
    if (!read_pod(f.get(), rep) || !read_pod(f.get(), run.seed) ||
        !read_pod(f.get(), count)) {
      set_error(error, path + ": truncated run header");
      return std::nullopt;
    }
    run.rep = static_cast<int>(rep);
    if (count > (1ull << 30)) {  // > 32 GB of records: corrupt, not huge
      set_error(error, path + ": implausible record count");
      return std::nullopt;
    }
    if (!io::has_bytes_left(f.get(), count * sizeof(TraceRecord))) {
      set_error(error, path + ": truncated records");
      return std::nullopt;
    }
    // One digest chunk at a time through one buffer: the records are
    // held encoded only, never as a count * 32-byte image.
    chunk.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, kDigestChunkRecords)));
    for (std::uint64_t left = count; left > 0;) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, kDigestChunkRecords));
      if (!read_all(f.get(), chunk.data(), n * sizeof(TraceRecord))) {
        set_error(error, path + ": truncated records");
        return std::nullopt;
      }
      for (std::size_t k = 0; k < n; ++k) run.records.push_back(chunk[k]);
      left -= n;
    }
    out.runs.push_back(std::move(run));
  }
  if (!saw_footer) {
    set_error(error, path + ": MCKTRC02 file is missing its digest footer");
    return std::nullopt;
  }
  return out;
}

std::vector<DigestMismatch> verify_trace_digests(const TraceFile& file) {
  std::vector<DigestMismatch> out;
  for (const TraceRun& run : file.runs) {
    const std::vector<std::uint64_t>& stored = run.digests.chunks;
    for_each_chunk(run.records, [&](std::uint64_t c, const TraceRecord* p,
                                    std::size_t n) {
      if (c >= stored.size()) return;
      const std::uint64_t want = chunk_digest(p, n, c);
      if (stored[c] != want) {
        out.push_back(DigestMismatch{run.rep, static_cast<std::int64_t>(c),
                                     stored[c], want});
      }
    });
    const std::uint64_t want = fold_run_digest(stored, run.records.size());
    if (run.digests.run != want) {
      out.push_back(DigestMismatch{run.rep, -1, run.digests.run, want});
    }
  }
  return out;
}

}  // namespace mck::obs
