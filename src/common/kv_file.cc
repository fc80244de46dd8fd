#include "common/kv_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/crc32c.h"
#include "common/fsync_dir.h"

namespace tsb {

Status WriteKvFile(const std::string& dir, const std::string& name,
                   const std::string& header, const KvFields& fields) {
  std::string body = header + "\n";
  for (const auto& [key, value] : fields) body += key + "=" + value + "\n";
  char trailer[24];
  snprintf(trailer, sizeof(trailer), "crc=%08x\n",
           crc32c::Mask(crc32c::Value(body.data(), body.size())));
  body += trailer;
  // Write-temp-fsync-rename: without the fsync the rename can survive a
  // power cut while the data blocks do not, leaving an empty file that
  // fails every later Open.
  const std::string file = dir + "/" + name;
  const std::string tmp = file + ".tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("create " + tmp, strerror(errno));
  }
  const bool wrote = fwrite(body.data(), 1, body.size(), f) == body.size() &&
                     fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  fclose(f);
  if (!wrote) return Status::IOError("write " + tmp, strerror(errno));
  if (::rename(tmp.c_str(), file.c_str()) != 0) {
    return Status::IOError("rename " + tmp, strerror(errno));
  }
  // The rename lives in the directory: without this fsync a power cut can
  // resurrect the previous file (or none) after later steps.
  return SyncDir(dir);
}

Status ReadKvFile(const std::string& file, const std::string& header,
                  bool* exists, KvFields* fields, bool* complete) {
  *exists = false;
  *complete = false;
  fields->clear();
  FILE* f = fopen(file.c_str(), "r");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError("open " + file, strerror(errno));
  }
  std::string body;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  const bool read_ok = ferror(f) == 0;
  fclose(f);
  if (!read_ok) return Status::IOError("read " + file, strerror(errno));
  bool header_ok = false;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t nl = body.find('\n', pos);
    const size_t end = nl == std::string::npos ? body.size() : nl + 1;
    std::string line = body.substr(pos, end - pos);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    unsigned crc = 0;
    if (header_ok && sscanf(line.c_str(), "crc=%x", &crc) == 1) {
      // The writer emits the terminator last, so a match proves the file
      // is whole: no trailing line was lost in a torn flush.
      if (crc32c::Unmask(crc) != crc32c::Value(body.data(), pos)) {
        return Status::Corruption("crc mismatch", file);
      }
      *complete = true;
      break;
    }
    pos = end;
    if (!header_ok) {
      if (line != header) break;
      header_ok = true;
      continue;
    }
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      fields->emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
  }
  if (!header_ok) return Status::Corruption("unrecognized header", file);
  *exists = true;
  return Status::OK();
}

bool ParseKvUint(const std::string& value, int base, uint64_t* out) {
  if (value.empty() || value[0] == '-' || value[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(value.c_str(), &end, base);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace tsb
