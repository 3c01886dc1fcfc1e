#include "util/fileio.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace pt {

namespace {

// Writes all `size` bytes to `fd`; false on a write error.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("atomic_write_file: cannot open " + tmp);
  }
  if (!write_all(fd, data, size)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomic_write_file: write failed for " + tmp);
  }
  // Flush file data before the rename so a crash between rename and the
  // next page-cache writeback cannot surface a renamed-but-empty file.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomic_write_file: fsync failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomic_write_file: rename to " + path + " failed");
  }
}

void append_line(const std::string& path, const std::string& line) {
  {
    // A crash mid-append can leave an unterminated tail: cut it back to the
    // last complete line so the new line does not fuse with it. Only this
    // rare recovery path reads the whole file.
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (f && f.tellg() > 0 && f.seekg(-1, std::ios::end) && f.get() != '\n') {
      const std::string text = read_file_text(path);
      const std::size_t nl = text.rfind('\n');
      std::filesystem::resize_file(path, nl == std::string::npos ? 0 : nl + 1);
    }
  }
  std::string text = line;
  if (text.empty() || text.back() != '\n') text.push_back('\n');
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw std::runtime_error("append_line: cannot open " + path);
  if (!write_all(fd, text.data(), text.size())) {
    ::close(fd);
    throw std::runtime_error("append_line: write failed for " + path);
  }
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    throw std::runtime_error("append_line: fsync failed for " + path);
  }
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("read_file_bytes: cannot open " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    f.read(reinterpret_cast<char*>(bytes.data()), size);
    if (!f) throw std::runtime_error("read_file_bytes: read failed for " + path);
  }
  return bytes;
}

std::string read_file_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_file_text: cannot open " + path);
  std::string text(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>{});
  if (f.bad()) throw std::runtime_error("read_file_text: read failed for " + path);
  return text;
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void atomic_write_file_crc32(const std::string& path,
                             std::vector<std::uint8_t> bytes) {
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  const auto* cp = reinterpret_cast<const std::uint8_t*>(&crc);
  bytes.insert(bytes.end(), cp, cp + sizeof(crc));
  atomic_write_file(path, bytes.data(), bytes.size());
}

std::vector<std::uint8_t> read_file_bytes_crc32(const std::string& path) {
  std::vector<std::uint8_t> bytes = read_file_bytes(path);
  if (bytes.size() < sizeof(std::uint32_t)) {
    throw std::runtime_error("read_file_bytes_crc32: " + path +
                             " is too short for a CRC footer");
  }
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  const std::uint32_t actual = crc32(bytes.data(), body);
  if (stored != actual) {
    throw std::runtime_error("read_file_bytes_crc32: CRC mismatch in " + path +
                             " (file is truncated or corrupted)");
  }
  bytes.resize(body);
  return bytes;
}

}  // namespace pt
