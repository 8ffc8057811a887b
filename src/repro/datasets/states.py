"""The 50 U.S. states: 1998 population estimates and capitals.

Populations are in **thousands**, following the U.S. Census Bureau's
st-98-1 series the paper cites [Uni98]; with this unit, the paper's Query 2
("Count/Population") produces ratios on the same scale as its published
results (Alaska 1149, Washington 733, ...).

``web_weight`` and ``capital_web_weight`` are the *calibration targets* for
the synthetic Web corpus: relative mention frequencies anchored to every
count the paper publishes (Q1 top-5 states, Q2 per-capita top-5 implied
counts, Q4's six capital/state pairs) and extrapolated plausibly for the
rest.  The corpus generator divides them by its scale factor to get document
counts, so the *orderings and ratios* of the paper's results are preserved
even though absolute counts are corpus-sized rather than Web-sized.
"""

from collections import namedtuple

StateRecord = namedtuple(
    "StateRecord",
    ["name", "population", "capital", "web_weight", "capital_web_weight"],
)

# Columns: name, 1998 population (thousands), capital,
#          state web-count target, capital web-count target.
STATES = [
    StateRecord("Alabama", 4352, "Montgomery", 761600, 340000),
    StateRecord("Alaska", 614, "Juneau", 705546, 60000),
    StateRecord("Arizona", 4669, "Phoenix", 1073870, 820000),
    StateRecord("Arkansas", 2538, "Little Rock", 482220, 260000),
    StateRecord("California", 32667, "Sacramento", 4995016, 550000),
    StateRecord("Colorado", 3971, "Denver", 1350140, 900000),
    StateRecord("Connecticut", 3274, "Hartford", 605690, 380000),
    StateRecord("Delaware", 744, "Dover", 513360, 180000),
    StateRecord("Florida", 14916, "Tallahassee", 1566180, 230000),
    StateRecord("Georgia", 7642, "Atlanta", 958280, 1053868),
    StateRecord("Hawaii", 1193, "Honolulu", 757555, 420000),
    StateRecord("Idaho", 1229, "Boise", 307250, 200000),
    StateRecord("Illinois", 12045, "Springfield", 1349040, 520000),
    StateRecord("Indiana", 5899, "Indianapolis", 884850, 500000),
    StateRecord("Iowa", 2862, "Des Moines", 558090, 240000),
    StateRecord("Kansas", 2629, "Topeka", 525800, 130000),
    StateRecord("Kentucky", 3936, "Frankfort", 708480, 120000),
    StateRecord("Louisiana", 4369, "Baton Rouge", 917490, 220000),
    StateRecord("Maine", 1244, "Augusta", 385640, 310000),
    StateRecord("Maryland", 5135, "Annapolis", 975650, 210000),
    StateRecord("Massachusetts", 6147, "Boston", 1006946, 1409828),
    StateRecord("Michigan", 9817, "Lansing", 1621754, 160000),
    StateRecord("Minnesota", 4725, "Saint Paul", 945000, 300000),
    StateRecord("Mississippi", 2752, "Jackson", 662145, 1120655),
    StateRecord("Missouri", 5439, "Jefferson City", 870240, 100000),
    StateRecord("Montana", 880, "Helena", 396000, 140000),
    StateRecord("Nebraska", 1663, "Lincoln", 385991, 669059),
    StateRecord("Nevada", 1747, "Carson City", 733740, 110000),
    StateRecord("New Hampshire", 1185, "Concord", 319950, 290000),
    StateRecord("New Jersey", 8115, "Trenton", 1054950, 200000),
    StateRecord("New Mexico", 1737, "Santa Fe", 503730, 320000),
    StateRecord("New York", 18175, "Albany", 3764513, 480000),
    StateRecord("North Carolina", 7546, "Raleigh", 1056440, 280000),
    StateRecord("North Dakota", 638, "Bismarck", 223300, 90000),
    StateRecord("Ohio", 11209, "Columbus", 1289035, 800000),
    StateRecord("Oklahoma", 3347, "Oklahoma City", 635930, 380000),
    StateRecord("Oregon", 3282, "Salem", 853320, 400000),
    StateRecord("Pennsylvania", 12001, "Harrisburg", 1320110, 150000),
    StateRecord("Rhode Island", 988, "Providence", 296400, 280000),
    StateRecord("South Carolina", 3836, "Columbia", 540618, 1668270),
    StateRecord("South Dakota", 738, "Pierre", 283821, 663310),
    StateRecord("Tennessee", 5431, "Nashville", 923270, 700000),
    StateRecord("Texas", 19760, "Austin", 2724285, 610000),
    StateRecord("Utah", 2100, "Salt Lake City", 588000, 350000),
    StateRecord("Vermont", 591, "Montpelier", 283680, 70000),
    StateRecord("Virginia", 6791, "Richmond", 1358200, 600000),
    StateRecord("Washington", 5689, "Olympia", 4167056, 190000),
    StateRecord("West Virginia", 1811, "Charleston", 380310, 250000),
    StateRecord("Wisconsin", 5224, "Madison", 861960, 650000),
    StateRecord("Wyoming", 481, "Cheyenne", 290043, 90000),
]

STATE_NAMES = [s.name for s in STATES]

# The six capitals the paper's Query 4 reports as beating their states
# (the *complete* result set in the paper).
CAPITALS_BEATING_STATES = {
    "Atlanta", "Lincoln", "Boston", "Jackson", "Pierre", "Columbia",
}
