#include "obs/trace_io.hpp"

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
  for (const TraceRun& run : runs) {
    ok = ok && write_all(f.get(), kRunMagic, sizeof kRunMagic);
    ok = ok && write_pod(f.get(), static_cast<std::uint32_t>(run.rep));
    ok = ok && write_pod(f.get(), run.seed);
    ok = ok && write_pod(f.get(),
                         static_cast<std::uint64_t>(run.records.size()));
    ok = ok && write_all(f.get(), run.records.data(),
                         run.records.size() * sizeof(TraceRecord));
  }
  if (ok) {
    // Footer image built in memory (a few KB even for 1M-record runs —
    // one u64 per 4096 records) so the trailing self-digest covers it.
    std::vector<unsigned char> footer;
    append_pod(footer, static_cast<std::uint32_t>(runs.size()));
    for (const TraceRun& run : runs) {
      // Trust digests the harness already computed over these exact
      // records; recompute otherwise.
      RunDigests fresh;
      const RunDigests* d = &run.digests;
      if (d->chunks.size() != digest_chunk_count(run.records.size())) {
        fresh = compute_run_digests(run.records.data(), run.records.size());
        d = &fresh;
      }
      append_pod(footer, static_cast<std::uint32_t>(run.rep));
      append_pod(footer, d->run);
      append_pod(footer, static_cast<std::uint64_t>(d->chunks.size()));
      for (std::uint64_t c : d->chunks) append_pod(footer, c);
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
    run.records.resize(count);
    if (!read_all(f.get(), run.records.data(),
                  count * sizeof(TraceRecord))) {
      set_error(error, path + ": truncated records");
      return std::nullopt;
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
    const std::uint64_t chunks = digest_chunk_count(run.records.size());
    for (std::uint64_t c = 0; c < chunks && c < run.digests.chunks.size();
         ++c) {
      const std::uint64_t want =
          compute_chunk_digest(run.records.data(), run.records.size(), c);
      if (run.digests.chunks[c] != want) {
        out.push_back(DigestMismatch{run.rep, static_cast<std::int64_t>(c),
                                     run.digests.chunks[c], want});
      }
    }
    const std::uint64_t want =
        fold_run_digest(run.digests.chunks, run.records.size());
    if (run.digests.run != want) {
      out.push_back(DigestMismatch{run.rep, -1, run.digests.run, want});
    }
  }
  return out;
}

}  // namespace mck::obs
