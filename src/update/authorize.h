/// \file
/// \brief View-checked update authorization — accept/reject semantics
/// over the view's access annotations (docs/DESIGN.md §6.2; the update
/// model of Mahfoud & Imine's secure-updating extension of the
/// security-view framework SMOQE reproduces).
///
/// An update posed through a view is rejected *whole* if its effect
/// region touches anything the user group cannot unconditionally see:
///
///  * delete/replace — every node of the removed subtree must be visible
///    and not condition-protected (deleting what you cannot see, or what
///    you only see because a qualifier currently holds, is denied);
///  * insert/replace — every edge the grafted fragment would create,
///    including the graft edge itself, must be free of N and [q]
///    annotations (writes may not create data that would be hidden from,
///    or conditionally exposed to, the writer).
///
/// The returned PermissionDenied names the violated annotation verbatim,
/// e.g. `update rejected: delete would remove hidden element 'pname'
/// (node 4), hidden by annotation 'patient/pname : N'`.

#ifndef SMOQE_UPDATE_AUTHORIZE_H_
#define SMOQE_UPDATE_AUTHORIZE_H_

#include <vector>

#include "src/common/status.h"
#include "src/update/applier.h"
#include "src/view/access.h"
#include "src/view/annotation.h"
#include "src/xml/dom.h"

namespace smoqe::update {

/// The access map of `script`'s effect region under `policy`: each
/// target's root path, plus the subtree a delete/replace removes. It
/// classifies every node AuthorizeScript and the view-cache retention
/// test read, and nothing else.
view::AccessMap EffectRegionAccess(const view::Policy& policy,
                                   const xml::Document& doc,
                                   const std::vector<ResolvedEdit>& script);

/// Checks every edit of `script` (targets resolved to document nodes)
/// against the policy's node-level accessibility. `access` must classify
/// the script's effect region of `doc` under `policy` at the document's
/// current epoch: EffectRegionAccess, or the whole-document
/// AccessMap::Compute — both give the same verdict and explain string.
/// OK = accepted; PermissionDenied = rejected whole, with the explain
/// string; other codes = malformed script.
Status AuthorizeScript(const view::Policy& policy,
                       const view::AccessMap& access,
                       const xml::Document& doc,
                       const std::vector<ResolvedEdit>& script);

/// The edit-irrelevance test of the view-cache retention rule
/// (docs/DESIGN.md §6.5): true iff applying `script` to `doc` cannot
/// change the view's materialization — every removed subtree is hidden,
/// and every grafted fragment lands hidden (the graft parent's status,
/// then edge annotations inherited down the fragment). Meaningful only
/// for a qualifier-free `policy`; `access` as for AuthorizeScript.
bool ScriptHiddenFrom(const view::Policy& policy,
                      const view::AccessMap& access, const xml::Document& doc,
                      const std::vector<ResolvedEdit>& script);

}  // namespace smoqe::update

#endif  // SMOQE_UPDATE_AUTHORIZE_H_
