#include "util/text_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace forktail::util {

void write_text_file(const std::string& path, std::string_view text) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) throw std::runtime_error("cannot write " + path);
  bool ok = true;
  for (std::size_t done = 0; ok && done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<std::size_t>(n);
  }
  // Only a regular file has a length to cut; a FIFO or a terminal does not.
  struct stat st {};
  if (ok && ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    ok = ::ftruncate(fd, static_cast<off_t>(text.size())) == 0;
  }
  ok = ::close(fd) == 0 && ok;
  if (!ok) throw std::runtime_error("cannot write " + path);
}

}  // namespace forktail::util
