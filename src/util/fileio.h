// Crash-safe file I/O primitives shared by snapshots and checkpoints.
//
// atomic_write_file() implements the write-temp-then-rename protocol: the
// payload is written to `<path>.tmp`, flushed to stable storage (fsync),
// and renamed over `path`. POSIX rename(2) is atomic, so a reader — or a
// process restarted after a crash mid-save — sees either the complete old
// file or the complete new file, never a torn mix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pt {

/// Atomically replaces `path` with `size` bytes of `data`. Throws
/// std::runtime_error on any I/O failure (the temp file is removed).
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);

/// Appends `line` (a '\n' is added when missing) to a text file with one
/// O_APPEND write and an fsync, in O(|line|). A crash mid-append can leave
/// an unterminated tail; it is truncated away before the next append, so a
/// resumed writer never buries a torn line mid-file. Readers skip an
/// unterminated final line. Creates the file when absent. Throws
/// std::runtime_error on any I/O failure. This is the append protocol of
/// the telemetry JSONL emitter.
void append_line(const std::string& path, const std::string& line);

/// Reads an entire file into memory. Throws std::runtime_error if the file
/// cannot be opened or read.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Reads an entire file as text. Throws std::runtime_error on failure.
std::string read_file_text(const std::string& path);

/// Atomically writes `bytes` followed by a 4-byte CRC-32 footer covering
/// them — the integrity discipline shared by checkpoints and any other
/// consumer that must reject torn or bit-rotted files on load.
void atomic_write_file_crc32(const std::string& path,
                             std::vector<std::uint8_t> bytes);

/// Reads a file written by atomic_write_file_crc32: verifies the CRC-32
/// footer before returning the body (footer stripped). Throws
/// std::runtime_error when the file is too short or the CRC mismatches
/// (truncation / corruption).
std::vector<std::uint8_t> read_file_bytes_crc32(const std::string& path);

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of a byte range.
/// Used as the integrity footer of snapshot/checkpoint files.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace pt
