/**
 * @file
 * The serial store and sidecar loaders as they were before loadStore()
 * and loadForensics() moved onto foldLineBlocks
 * (src/campaign/line_blocks.hh), kept as the reference half of their
 * equivalence contract: tests/campaign/test_loaders.cc requires the
 * block loaders to return every field of these at every thread count,
 * on clean and on damaged files.
 *
 * This is a deliberate verbatim copy. Do not "optimize" it -- its
 * value is being the old loop.
 */

#ifndef XED_TESTS_SUPPORT_CAMPAIGN_REFERENCE_HH
#define XED_TESTS_SUPPORT_CAMPAIGN_REFERENCE_HH

#include <cstdint>
#include <string>

#include "campaign/forensics.hh"
#include "campaign/store.hh"

namespace xed::campaign::reference
{

/** The serial loadStore(): the whole file read at once, one line
 *  decoded and folded after another. */
LoadedStore loadStore(const std::string &path,
                      const std::string &expectedHash,
                      const CampaignSpec &spec, const Plan &plan);

/** The serial loadForensics(): one getline, decode and fold per
 *  line. */
LoadedForensics loadForensics(const std::string &path, const Plan &plan,
                              std::uint64_t maxShards);

} // namespace xed::campaign::reference

#endif // XED_TESTS_SUPPORT_CAMPAIGN_REFERENCE_HH
