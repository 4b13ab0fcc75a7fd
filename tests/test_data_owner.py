"""The initial fields have one owner.

Every [data] family of `cli.FAMILIES` is built by a function of
`wavemap.data`, which checks the data it builds, except `snapshot`,
whose data is the last frame of a store that `cli` reads.  The unit bump
and its refusal of a support reaching the origin are data's too: no other
package module calls `bump_profile`.  Each package module is parsed for
the calls, not imported or executed.
"""

from source_index import CALL, naming
from wavemap import cli


def test_data_builds_every_family_but_snapshot():
    owners = {name: row.build.__module__
              for name, row in cli.FAMILIES.items()}
    assert owners.pop("snapshot") == "wavemap.cli"
    assert owners == dict.fromkeys(owners, "wavemap.data")


def test_only_data_calls_bump_profile():
    assert set(naming({"bump_profile"}, CALL)) == {"data"}
