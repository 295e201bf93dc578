// Whole-file writer shared by every report the tree writes (forktail run
// --out, obs::RunReport, the bench reports).  A library of its own with no
// dependencies, so forktail_obs can use it without linking forktail_util,
// which links forktail_obs.
#pragma once

#include <string>
#include <string_view>

namespace forktail::util {

/// Replace the contents of `path` (created if absent) with `text`; throws
/// std::runtime_error when it cannot be written.  An existing regular file
/// is overwritten in place and then cut to length, not truncated to zero
/// on open: ext4 flushes a file truncated to zero when it is closed
/// (auto_da_alloc), which can stall a rewrite for tens of milliseconds.
/// Symlinks, hard links and permissions are kept.
void write_text_file(const std::string& path, std::string_view text);

}  // namespace forktail::util
