#include "obs/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

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

// Reads one chunk of `n` records (its byte count, then its bytes) through
// `buf` and appends it to `records`; returns what is wrong with it, or
// null. The byte count is bounded before `buf` is sized for it.
const char* read_chunk(std::FILE* f, std::size_t n,
                       std::vector<unsigned char>& buf, TraceRecords& records) {
  std::uint32_t len = 0;
  if (!read_pod(f, len)) return "truncated records";
  if (len > n * TraceRecords::kMaxRecordBytes) {
    return "implausible chunk byte count";
  }
  if (!io::has_bytes_left(f, len)) return "truncated records";
  buf.resize(len);
  if (!read_all(f, buf.data(), len)) return "truncated records";
  if (!records.append_chunk(buf, n)) return "malformed records";
  return nullptr;
}

}  // namespace

bool write_trace_file(const std::string& path, const TraceFileMeta& meta,
                      const std::vector<TraceRun>& runs, std::string* error) {
  io::FilePtr f = io::open_file(path, "wb", error);
  if (!f) return false;
  bool ok = io::write_header(f.get(), kTraceFileMagic, meta.num_processes,
                             meta.algo);
  // Footer image built in memory (a few KB even for 1M-record runs — one
  // u64 per 4096 records) so the trailing self-digest covers it.
  std::vector<unsigned char> footer;
  append_pod(footer, static_cast<std::uint32_t>(runs.size()));
  for (const TraceRun& run : runs) {
    ok = ok && write_all(f.get(), kRunMagic, sizeof kRunMagic);
    ok = ok && write_pod(f.get(), static_cast<std::uint32_t>(run.rep));
    ok = ok && write_pod(f.get(), run.seed);
    ok = ok && write_pod(f.get(), std::uint64_t{run.records.size()});
    for (std::size_t c = 0; ok && c < run.records.chunks(); ++c) {
      const std::span<const unsigned char> bytes = run.records.chunk_bytes(c);
      ok = write_pod(f.get(), static_cast<std::uint32_t>(bytes.size())) &&
           write_all(f.get(), bytes.data(), bytes.size());
    }
    const RunDigests d = compute_run_digests(run.records);
    append_pod(footer, static_cast<std::uint32_t>(run.rep));
    append_pod(footer, d.run);
    append_pod(footer, std::uint64_t{d.chunks.size()});
    for (std::uint64_t c : d.chunks) append_pod(footer, c);
  }
  const std::uint64_t self =
      digest_bytes(footer.data(), footer.size(), kFooterSeed);
  ok = ok && write_all(f.get(), kDigMagic, sizeof kDigMagic);
  ok = ok && write_all(f.get(), footer.data(), footer.size());
  ok = ok && write_pod(f.get(), self);
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
  const auto fail = [&](const std::string& what) {
    set_error(error, path + ": " + what);
    return std::nullopt;
  };
  std::vector<unsigned char> chunk;
  for (;;) {
    char magic[4];
    const std::size_t got = std::fread(magic, 1, sizeof magic, f.get());
    if (got == 0) return fail("MCKTRC03 file is missing its digest footer");
    if (got == sizeof magic &&
        std::memcmp(magic, kDigMagic, sizeof magic) == 0) {
      break;
    }
    if (got != sizeof magic ||
        std::memcmp(magic, kRunMagic, sizeof magic) != 0) {
      return fail("corrupt run section");
    }
    TraceRun run;
    std::uint32_t rep = 0;
    std::uint64_t count = 0;
    if (!read_pod(f.get(), rep) || !read_pod(f.get(), run.seed) ||
        !read_pod(f.get(), count)) {
      return fail("truncated run header");
    }
    run.rep = static_cast<int>(rep);
    if (count > (1ull << 30)) {  // > 2^30 records: corrupt, not huge
      return fail("implausible record count");
    }
    // One chunk at a time: its bytes are checked, then become the
    // chunk's bytes in memory.
    for (std::uint64_t c = 0; c * kDigestChunkRecords < count; ++c) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
          count - c * kDigestChunkRecords, kDigestChunkRecords));
      if (const char* bad = read_chunk(f.get(), n, chunk, run.records)) {
        return fail("rep " + std::to_string(rep) + " chunk " +
                    std::to_string(c) + ": " + bad);
      }
    }
    out.runs.push_back(std::move(run));
  }
  // The runs fix the footer's size: read it whole and check its
  // self-digest before trusting any field of it.
  std::size_t size = 4 + 8;
  for (const TraceRun& run : out.runs) {
    size += 4 + 8 + 8 + 8 * run.records.chunks();
  }
  std::vector<unsigned char> image(size);
  if (!read_all(f.get(), image.data(), size)) {
    return fail("truncated digest footer");
  }
  if (std::fgetc(f.get()) != EOF) return fail("bytes after the digest footer");
  std::uint64_t self = 0;
  std::memcpy(&self, image.data() + size - 8, 8);
  if (self != digest_bytes(image.data(), size - 8, kFooterSeed)) {
    return fail("corrupt digest footer (self-digest)");
  }
  const unsigned char* p = image.data();
  const auto take = [&p](auto& v) {
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
  };
  std::uint32_t run_count = 0;
  take(run_count);
  if (run_count != out.runs.size()) {
    return fail("corrupt digest footer (run count)");
  }
  for (TraceRun& run : out.runs) {
    std::uint32_t rep = 0;
    std::uint64_t chunks = 0;
    take(rep);
    take(run.digests.run);
    take(chunks);
    if (rep != static_cast<std::uint32_t>(run.rep) ||
        chunks != run.records.chunks()) {
      return fail("corrupt digest footer (chunk shape)");
    }
    run.digests.chunks.resize(run.records.chunks());
    for (std::uint64_t& d : run.digests.chunks) take(d);
  }
  return out;
}

std::vector<DigestMismatch> verify_trace_digests(const TraceFile& file) {
  std::vector<DigestMismatch> out;
  for (const TraceRun& run : file.runs) {
    const std::vector<std::uint64_t>& stored = run.digests.chunks;
    const std::vector<std::uint64_t> want =
        compute_run_digests(run.records).chunks;
    for (std::size_t c = 0; c < std::min(stored.size(), want.size()); ++c) {
      if (stored[c] != want[c]) {
        out.push_back(DigestMismatch{run.rep, static_cast<std::int64_t>(c),
                                     stored[c], want[c]});
      }
    }
    const std::uint64_t run_want = fold_run_digest(stored, run.records.size());
    if (run.digests.run != run_want) {
      out.push_back(DigestMismatch{run.rep, -1, run.digests.run, run_want});
    }
  }
  return out;
}

}  // namespace mck::obs
