#include "storage/artifact_store.h"

#include <algorithm>
#include <fstream>
#include <system_error>

#include <sys/stat.h>

#include <optional>

#include "fault/fault.h"

namespace vmp::storage {

namespace fs = std::filesystem;
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

/// Allocated 512-byte blocks of a file (follows symlinks), or nullopt when
/// the platform call fails.  Used to detect sparse sources in copy_file.
std::optional<std::uint64_t> sparse_block_hint(const fs::path& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return static_cast<std::uint64_t>(st.st_blocks);
}

}  // namespace

IoAccounting& IoAccounting::operator+=(const IoAccounting& other) {
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  files_touched += other.files_touched;
  links_created += other.links_created;
  bytes_freed += other.bytes_freed;
  return *this;
}

ArtifactStore::ArtifactStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

Result<fs::path> ArtifactStore::resolve(const std::string& relative) const {
  const fs::path p(relative);
  if (p.is_absolute()) {
    return Result<fs::path>(
        Error(ErrorCode::kInvalidArgument,
              "absolute path not allowed in store: " + relative));
  }
  for (const auto& part : p) {
    if (part == "..") {
      return Result<fs::path>(
          Error(ErrorCode::kInvalidArgument,
                "path traversal not allowed in store: " + relative));
    }
  }
  return root_ / p;
}

bool ArtifactStore::exists(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return false;
  std::error_code ec;
  // symlink_status: a dangling symlink still "exists" as an artefact.
  return fs::symlink_status(p.value(), ec).type() != fs::file_type::not_found &&
         !ec;
}

bool ArtifactStore::is_symlink(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return false;
  std::error_code ec;
  return fs::is_symlink(p.value(), ec) && !ec;
}

Result<std::uint64_t> ArtifactStore::file_size(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::uint64_t>();
  std::error_code ec;
  if (fs::is_symlink(p.value(), ec)) return std::uint64_t{0};  // link itself
  const auto size = fs::file_size(p.value(), ec);
  if (ec) {
    return Result<std::uint64_t>(
        Error(ErrorCode::kNotFound, "file_size(" + relative + "): " + ec.message()));
  }
  return static_cast<std::uint64_t>(size);
}

Result<std::uint64_t> ArtifactStore::logical_size(const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::uint64_t>();
  std::error_code ec;
  if (fs::is_symlink(p.value(), ec) && !fs::exists(p.value(), ec)) {
    // The link exists but its target does not: a stale reference to an
    // evicted or half-removed base image, not an ordinary missing file.
    return Result<std::uint64_t>(
        Error(ErrorCode::kFailedPrecondition,
              "logical_size(" + relative + "): dangling symlink (target " +
                  fs::read_symlink(p.value(), ec).string() + " is gone)"));
  }
  const auto size = fs::file_size(p.value(), ec);  // follows symlinks
  if (ec) {
    return Result<std::uint64_t>(
        Error(ErrorCode::kNotFound,
              "logical_size(" + relative + "): " + ec.message()));
  }
  return static_cast<std::uint64_t>(size);
}

Result<TreeFootprint> ArtifactStore::tree_footprint(
    const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<TreeFootprint>();
  std::error_code ec;
  const auto status = fs::symlink_status(p.value(), ec);
  if (ec || status.type() == fs::file_type::not_found) {
    return Result<TreeFootprint>(
        Error(ErrorCode::kNotFound, "tree_footprint(" + relative + "): " +
                                        (ec ? ec.message() : "no such path")));
  }
  TreeFootprint fp;
  auto add_entry = [&fp](const fs::path& path) {
    std::error_code entry_ec;
    if (fs::is_symlink(path, entry_ec)) {
      ++fp.links;
      return;
    }
    if (fs::is_regular_file(path, entry_ec)) {
      ++fp.files;
      const auto size = fs::file_size(path, entry_ec);
      if (!entry_ec) fp.physical_bytes += static_cast<std::uint64_t>(size);
    }
  };
  if (status.type() == fs::file_type::directory) {
    for (const auto& entry :
         fs::recursive_directory_iterator(p.value(), ec)) {
      add_entry(entry.path());
    }
    if (ec) {
      return Result<TreeFootprint>(
          Error(ErrorCode::kInternal,
                "tree_footprint(" + relative + ") walk: " + ec.message()));
    }
  } else {
    add_entry(p.value());
  }
  return fp;
}

Result<std::vector<std::string>> ArtifactStore::list_dir(
    const std::string& relative) const {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::vector<std::string>>();
  std::error_code ec;
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(p.value(), ec)) {
    out.push_back(entry.path().filename().string());
  }
  if (ec) {
    return Result<std::vector<std::string>>(
        Error(ErrorCode::kNotFound, "list_dir(" + relative + "): " + ec.message()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status ArtifactStore::make_dir(const std::string& relative) {
  auto p = resolve(relative);
  if (!p.ok()) return p.error();
  std::error_code ec;
  fs::create_directories(p.value(), ec);
  if (ec) {
    return Status(ErrorCode::kInternal,
                  "make_dir(" + relative + "): " + ec.message());
  }
  return Status();
}

Result<IoAccounting> ArtifactStore::create_sparse_file(
    const std::string& relative, std::uint64_t size) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  std::error_code ec;
  fs::create_directories(p.value().parent_path(), ec);
  std::ofstream out(p.value(), std::ios::binary | std::ios::trunc);
  if (!out) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot create " + relative));
  }
  if (size > 0) {
    out.seekp(static_cast<std::streamoff>(size - 1));
    out.put('\0');
  }
  if (!out) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot size " + relative));
  }
  IoAccounting acct;
  acct.bytes_written = size;
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::write_file(const std::string& relative,
                                               const std::string& content) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  std::error_code ec;
  fs::create_directories(p.value().parent_path(), ec);
  std::ofstream out(p.value(), std::ios::binary | std::ios::trunc);
  if (!out) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot write " + relative));
  }
  out << content;
  if (!out) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "short write to " + relative));
  }
  IoAccounting acct;
  acct.bytes_written = content.size();
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<std::string> ArtifactStore::read_file(const std::string& relative) const {
  if (auto injected = fault::check(fault::points::kStoreRead, relative);
      !injected.ok()) {
    return injected.propagate<std::string>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<std::string>();
  std::ifstream in(p.value(), std::ios::binary);
  if (!in) {
    return Result<std::string>(
        Error(ErrorCode::kNotFound, "cannot read " + relative));
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

Result<IoAccounting> ArtifactStore::append_file(const std::string& relative,
                                                const std::string& content) {
  if (auto injected = fault::check(fault::points::kStoreWrite, relative);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  std::ofstream out(p.value(), std::ios::binary | std::ios::app);
  if (!out) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "cannot append to " + relative));
  }
  out << content;
  IoAccounting acct;
  acct.bytes_written = content.size();
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::copy_file(const std::string& from,
                                              const std::string& to) {
  if (auto injected = fault::check(fault::points::kStoreWrite, to);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();

  auto size = logical_size(from);
  if (!size.ok()) return size.propagate<IoAccounting>();

  std::error_code ec;
  fs::create_directories(to_p.value().parent_path(), ec);

  // Sparse fast path: multi-gigabyte virtual disks and memory checkpoints
  // are created as holes (create_sparse_file).  Byte-copying holes would
  // write the zeros out for real, so a fully sparse source is recreated as
  // a sparse target instead.  The accounting still charges the logical
  // size — the simulated cluster bills transfer time for it as the real
  // testbed would.
  const auto blocks = sparse_block_hint(from_p.value());
  if (size.value() >= 1 << 20 && blocks.has_value() &&
      *blocks * 512 < size.value() / 2) {
    std::ofstream out(to_p.value(), std::ios::binary | std::ios::trunc);
    if (!out) {
      return Result<IoAccounting>(
          Error(ErrorCode::kInternal, "cannot create " + to));
    }
    if (size.value() > 0) {
      out.seekp(static_cast<std::streamoff>(size.value() - 1));
      out.put('\0');
    }
  } else {
    fs::copy_file(from_p.value(), to_p.value(),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
      return Result<IoAccounting>(
          Error(ErrorCode::kInternal,
                "copy " + from + " -> " + to + ": " + ec.message()));
    }
  }
  IoAccounting acct;
  acct.bytes_read = size.value();
  acct.bytes_written = size.value();
  acct.files_touched = 2;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::link_file(const std::string& from,
                                              const std::string& to) {
  if (auto injected = fault::check(fault::points::kStoreWrite, to);
      !injected.ok()) {
    return injected.propagate<IoAccounting>();
  }
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();
  if (!exists(from)) {
    return Result<IoAccounting>(
        Error(ErrorCode::kNotFound, "link source missing: " + from));
  }
  std::error_code ec;
  fs::create_directories(to_p.value().parent_path(), ec);
  // Link target stored as absolute path; clone directories move rarely, and
  // absolute links keep reads working from any CWD.
  fs::create_symlink(fs::absolute(from_p.value()), to_p.value(), ec);
  if (ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal,
              "link " + to + " -> " + from + ": " + ec.message()));
  }
  IoAccounting acct;
  acct.links_created = 1;
  acct.files_touched = 1;
  account(acct);
  return acct;
}

Result<IoAccounting> ArtifactStore::copy_tree(const std::string& from,
                                              const std::string& to) {
  auto from_p = resolve(from);
  if (!from_p.ok()) return from_p.propagate<IoAccounting>();
  auto to_p = resolve(to);
  if (!to_p.ok()) return to_p.propagate<IoAccounting>();
  std::error_code ec;
  if (!fs::is_directory(from_p.value(), ec) || ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kNotFound, "copy_tree source not a directory: " + from));
  }
  if (exists(to)) {
    return Result<IoAccounting>(
        Error(ErrorCode::kAlreadyExists, "copy_tree target exists: " + to));
  }
  VMP_RETURN_IF_ERROR_AS(make_dir(to), IoAccounting);

  IoAccounting total;
  for (const auto& entry :
       fs::recursive_directory_iterator(from_p.value(), ec)) {
    // Lexical relativization only: fs::relative canonicalizes through
    // symlinks, which would rename a link entry to its target's path.
    const std::string rel =
        entry.path().lexically_relative(from_p.value()).string();
    const std::string target = to + "/" + rel;
    if (entry.is_symlink()) {
      const fs::path link_target = fs::read_symlink(entry.path(), ec);
      auto target_p = resolve(target);
      if (!target_p.ok()) return target_p.propagate<IoAccounting>();
      fs::create_directories(target_p.value().parent_path(), ec);
      fs::create_symlink(link_target, target_p.value(), ec);
      if (ec) {
        return Result<IoAccounting>(Error(
            ErrorCode::kInternal, "copy_tree link " + target + ": " + ec.message()));
      }
      IoAccounting acct;
      acct.links_created = 1;
      acct.files_touched = 1;
      total += acct;
      account(acct);
    } else if (entry.is_directory()) {
      VMP_RETURN_IF_ERROR_AS(make_dir(target), IoAccounting);
    } else {
      auto copied = copy_file(from + "/" + rel, target);
      if (!copied.ok()) return copied;
      total += copied.value();
    }
  }
  if (ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal, "copy_tree walk: " + ec.message()));
  }
  return total;
}

Status ArtifactStore::remove(const std::string& relative) {
  auto p = resolve(relative);
  if (!p.ok()) return p.error();
  std::error_code ec;
  if (!fs::remove(p.value(), ec) || ec) {
    return Status(ErrorCode::kNotFound,
                  "remove(" + relative + "): " +
                      (ec ? ec.message() : "no such file"));
  }
  return Status();
}

Result<IoAccounting> ArtifactStore::remove_tree(const std::string& relative) {
  auto p = resolve(relative);
  if (!p.ok()) return p.propagate<IoAccounting>();
  // Measure before deleting so the caller learns what the removal actually
  // reclaimed.  A missing path is not an error (idempotent cleanup): it
  // frees nothing.
  IoAccounting acct;
  if (exists(relative)) {
    auto fp = tree_footprint(relative);
    if (fp.ok()) {
      acct.bytes_freed = fp.value().physical_bytes;
      acct.files_touched = fp.value().files + fp.value().links;
    }
  }
  std::error_code ec;
  fs::remove_all(p.value(), ec);
  if (ec) {
    return Result<IoAccounting>(
        Error(ErrorCode::kInternal,
              "remove_tree(" + relative + "): " + ec.message()));
  }
  account(acct);
  return acct;
}

}  // namespace vmp::storage
