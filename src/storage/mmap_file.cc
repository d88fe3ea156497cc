#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace qarm {

Result<std::unique_ptr<MmapFile>> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(err));
  }
  size_t size = static_cast<size_t>(st.st_size);
  const uint8_t* data = nullptr;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot mmap '" + path +
                             "': " + std::strerror(err));
    }
    data = static_cast<const uint8_t*>(map);
  }
  // The mapping outlives the descriptor.
  ::close(fd);
  return std::unique_ptr<MmapFile>(new MmapFile(data, size));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

void MmapFile::AdviseSequential() {
  if (data_ != nullptr) {
    ::madvise(const_cast<uint8_t*>(data_), size_, MADV_SEQUENTIAL);
  }
}

// stdio rather than ofstream: fsync needs the file descriptor.
Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + tmp_path + "' for writing");
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
  ok = ::fsync(::fileno(file)) == 0 && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("write to '" + tmp_path + "' failed");
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename '" + tmp_path + "' to '" + path +
                           "'");
  }
  return Status::OK();
}

}  // namespace qarm
