// Converts a mining run's output into the storage-neutral StoredRuleSet
// that WriteRuleSet serializes as a QRS file — the hand-off from mining
// time to serving time (`qarm mine --output-rules` -> `qarm serve`).
//
// Beyond a field-for-field copy, the exporter computes each rule's lift
// (confidence / support(consequent)) from the consequent's support count,
// which rule generation looks up in its frequent-itemset index and carries
// on the rule: every consequent is a subset of a frequent itemset and
// hence, by downward closure, usually frequent itself; when its count is
// absent (0) the lift is stored as 0 = unknown.
#ifndef QARM_CORE_RULES_EXPORT_H_
#define QARM_CORE_RULES_EXPORT_H_

#include "core/miner.h"
#include "storage/rules_format.h"

namespace qarm {

// Builds the rule set `result` describes, carrying the decode metadata of
// `result.mapped`, the mined rules with their measures, and the mining
// parameters from `options`.
StoredRuleSet ExportRuleSet(const MiningResult& result,
                            const MinerOptions& options);

}  // namespace qarm

#endif  // QARM_CORE_RULES_EXPORT_H_
