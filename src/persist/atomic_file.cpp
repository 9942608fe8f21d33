#include "persist/atomic_file.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "util/check.hpp"
#include "util/fault.hpp"

namespace ffp::persist {

namespace {

// Record-file header: 8 magic bytes + little-endian u32 format version.
// The \r\n in the magic catches text-mode line-ending mangling the same
// way PNG's does.
constexpr char kMagic[8] = {'f', 'f', 'p', 'r', 'e', 'c', '\r', '\n'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;
// A frame length beyond this is garbage from a torn tail, not a record.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

void put_le32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_le32(const char* p) {
  const auto b = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]));
  };
  return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::string header_bytes(std::uint32_t version) {
  std::string h(kMagic, sizeof(kMagic));
  put_le32(h, version);
  return h;
}

std::string frame(std::string_view payload) {
  FFP_CHECK(payload.size() <= kMaxRecordBytes, "persist: record too large (",
            payload.size(), " bytes)");
  std::string f;
  f.reserve(8 + payload.size());
  put_le32(f, static_cast<std::uint32_t>(payload.size()));
  put_le32(f, crc32(payload));
  f.append(payload);
  return f;
}

// Failures of the environment or of a file's content throw plain errors
// that name the file and the reason, never check internals: the paths are
// often the user's own (`ffp_part --out`, a daemon's --state-dir).
[[noreturn]] void io_failed(const char* call, const std::string& path,
                            int err) {
  throw Error(std::string("persist: ") + call + "('" + path +
              "') failed: " + std::strerror(err));
}

/// Throws unless `head` starts a record file of `version`; `verb` says
/// whether this build "reads" or "writes" it.
void check_header(const char* head, const std::string& path,
                  std::uint32_t version, const char* verb) {
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    throw Error("persist: '" + path + "' is not a record file (bad magic)");
  }
  const std::uint32_t found = get_le32(head + sizeof(kMagic));
  if (found != version) {
    throw Error("persist: '" + path + "' has format version " +
                std::to_string(found) + ", this build " + verb +
                " version " + std::to_string(version));
  }
}

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void write_all(int fd, std::string_view data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_failed("write", path, errno);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) io_failed("fsync", path, errno);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  // Some filesystems refuse directory opens; the rename is still ordered
  // after the file fsync, so degrade silently rather than fail the write.
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void ensure_dir(const std::string& path) {
  FFP_CHECK(!path.empty(), "persist: ensure_dir on empty path");
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? path : path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0777) == 0 || errno == EEXIST) continue;
    throw Error("persist: mkdir('" + prefix +
                "') failed: " + std::strerror(errno));
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw Error("persist: '" + path + "' is not a directory");
  }
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    io_failed("open", path, errno);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      io_failed("read", path, err);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

void remove_file(const std::string& path) { ::unlink(path.c_str()); }

std::vector<std::string> list_dir(const std::string& path) {
  std::vector<std::string> names;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return names;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (file_exists(path + "/" + name)) names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

void atomic_write_file(const std::string& path, std::string_view contents) {
  if (fault::fire(fault::Point::TornCheckpoint)) {
    // The legacy failure mode this module exists to prevent: a direct
    // overwrite of the final path, truncated halfway — what a crash
    // mid-write leaves behind without the temp+rename dance. Readers must
    // reject it (CRC framing) or see a torn file (plain files).
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0) io_failed("open", path, errno);
    write_all(fd, contents.substr(0, contents.size() / 2), path);
    ::close(fd);
    return;
  }

  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (fd < 0) io_failed("open", tmp, errno);
  write_all(fd, contents, tmp);
  fsync_or_throw(fd, tmp);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw Error("persist: rename('" + tmp + "' -> '" + path +
                "') failed: " + std::strerror(err));
  }
  fsync_dir(dir_of(path));
}

RecordWriter::RecordWriter(const std::string& path, std::uint32_t version)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0666);
  if (fd_ < 0) io_failed("open", path, errno);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) io_failed("fstat", path, errno);
  if (static_cast<std::size_t>(st.st_size) < kHeaderBytes) {
    // Empty (fresh create) or a header torn by a crash before its fsync:
    // neither can hold a record, so start the file over.
    if (::ftruncate(fd_, 0) != 0) io_failed("ftruncate", path, errno);
    write_all(fd_, header_bytes(version), path);
    fsync_or_throw(fd_, path);
    fsync_dir(dir_of(path));
    return;
  }
  char head[kHeaderBytes];
  if (::pread(fd_, head, kHeaderBytes, 0) !=
      static_cast<ssize_t>(kHeaderBytes)) {
    io_failed("pread", path, errno);
  }
  check_header(head, path, version, "writes");
}

RecordWriter::~RecordWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void RecordWriter::append(std::string_view payload) {
  write_all(fd_, frame(payload), path_);
  fsync_or_throw(fd_, path_);
}

RecordReadResult read_records(const std::string& path,
                              std::uint32_t expected_version) {
  RecordReadResult out;
  const auto contents = read_file(path);
  if (!contents.has_value() || contents->empty()) return out;
  const std::string& data = *contents;
  if (data.size() < kHeaderBytes) {
    out.truncated = true;  // crash between create and header fsync
    return out;
  }
  check_header(data.data(), path, expected_version, "reads");
  std::size_t pos = kHeaderBytes;
  while (pos + 8 <= data.size()) {
    const std::uint32_t len = get_le32(data.data() + pos);
    const std::uint32_t crc = get_le32(data.data() + pos + 4);
    if (len > kMaxRecordBytes || pos + 8 + len > data.size()) {
      out.truncated = true;
      return out;
    }
    const std::string_view payload(data.data() + pos + 8, len);
    if (crc32(payload) != crc) {
      out.truncated = true;
      return out;
    }
    out.records.emplace_back(payload);
    pos += 8 + len;
  }
  if (pos != data.size()) out.truncated = true;
  return out;
}

void write_records_atomic(const std::string& path, std::uint32_t version,
                          const std::vector<std::string>& records) {
  std::string out = header_bytes(version);
  for (const std::string& r : records) out.append(frame(r));
  atomic_write_file(path, out);
}

}  // namespace ffp::persist
